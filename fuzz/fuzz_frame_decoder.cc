// Fuzz target: the wire FrameDecoder plus every payload parser behind it.
//
// The input bytes are treated two ways:
//  1. As a socket byte stream, fed to FrameDecoder in several slices (the
//     incremental path: partial headers, partial payloads, frame
//     boundaries straddling feeds).  Every decoded frame is pushed through
//     all payload parsers regardless of opcode — the server dispatches by
//     opcode, but a parser must be safe on ANY payload.
//  2. As a bare payload for each parser directly, so parser coverage does
//     not depend on the fuzzer discovering CRC-valid frames.
//
// Invariants checked (beyond "no crash/UB"): net::Crc32 of the raw input
// must equal the bytewise reference CRC (the fuzzer explores lengths and
// alignments of the fast kernel), a decoded frame re-encoded with
// AppendFrame must decode again to the same opcode/flags/request id and
// payload, and a sticky decoder error must stay sticky.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/net/protocol.h"
#include "tests/crc32_reference.h"

namespace net = prefixfilter::net;

namespace {

void ExercisePayloadParsers(const uint8_t* payload, size_t len) {
  std::vector<uint64_t> keys;
  (void)net::DecodeKeyBatchPayload(payload, len, &keys);
  std::vector<uint64_t> appended = {1, 2, 3};
  (void)net::AppendKeyBatchPayload(payload, len, &appended);
  uint64_t failures = 0;
  (void)net::DecodeInsertResponsePayload(payload, len, &failures);
  std::vector<uint8_t> results;
  (void)net::DecodeQueryResponsePayload(payload, len, &results);
  net::ErrorCode code;
  std::string message;
  (void)net::DecodeErrorPayload(payload, len, &code, &message);
  net::WireStats stats;
  (void)net::DecodeStatsPayload(payload, len, &stats);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (net::Crc32(data, size) !=
      prefixfilter::testing_ref::Crc32Reference(data, size)) {
    __builtin_trap();
  }

  // Direct parser pass (no framing required).
  ExercisePayloadParsers(data, size);

  // Incremental stream pass: slice sizes derived from the input so the
  // mutator controls where feeds split.
  net::FrameDecoder decoder;
  const size_t chunk = size == 0 ? 1 : 1 + data[0] % 37;
  size_t offset = 0;
  bool poisoned = false;
  while (offset < size || offset == 0) {
    const size_t n = std::min(chunk, size - offset);
    decoder.Feed(data + offset, n);
    offset += n;
    for (;;) {
      net::Frame frame;
      const net::DecodeStatus status = decoder.Next(&frame);
      if (status == net::DecodeStatus::kNeedMore) break;
      if (status != net::DecodeStatus::kFrame) {
        // Sticky: the same error must repeat and nothing new may decode.
        net::Frame again;
        if (decoder.Next(&again) != status) __builtin_trap();
        poisoned = true;
        break;
      }
      ExercisePayloadParsers(frame.payload.data(), frame.payload.size());
      // Round-trip: re-encoding a decoded frame must decode identically.
      std::vector<uint8_t> bytes;
      net::AppendFrame(static_cast<net::Opcode>(frame.opcode), frame.flags,
                       frame.request_id, frame.payload.data(),
                       frame.payload.size(), &bytes);
      net::FrameDecoder redecoder;
      redecoder.Feed(bytes.data(), bytes.size());
      net::Frame redecoded;
      if (redecoder.Next(&redecoded) != net::DecodeStatus::kFrame ||
          redecoded.opcode != frame.opcode || redecoded.flags != frame.flags ||
          redecoded.request_id != frame.request_id ||
          redecoded.payload != frame.payload) {
        __builtin_trap();
      }
    }
    if (poisoned || size == 0) break;
  }
  return 0;
}
