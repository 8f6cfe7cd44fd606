// Fuzz target: the metrics wire codec (src/obs/exposition.h) plus the
// enclosing STATS payload decoder and the TRACES payload decoder.
//
// DecodeMetricSamples consumes from a ByteReader mid-payload, so it must be
// robust against arbitrary bytes AND leave the reader in a sane state.  A
// successful decode must re-encode into bytes that decode again to the same
// number of samples, and the Prometheus renderer must accept whatever the
// decoder produced.
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/net/protocol.h"
#include "src/obs/exposition.h"
#include "src/util/serialize.h"

namespace obs = prefixfilter::obs;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  // Bare metrics blob.
  {
    prefixfilter::ByteReader r(data, size);
    std::vector<obs::MetricSample> samples;
    if (obs::DecodeMetricSamples(&r, &samples)) {
      std::vector<uint8_t> encoded;
      obs::EncodeMetricSamples(samples, &encoded);
      prefixfilter::ByteReader r2(encoded.data(), encoded.size());
      std::vector<obs::MetricSample> again;
      if (!obs::DecodeMetricSamples(&r2, &again) ||
          again.size() != samples.size()) {
        __builtin_trap();  // decoded samples must round-trip
      }
      (void)obs::RenderPrometheusText(samples);
    }
  }

  // Whole STATS payload (counters, shard array, metrics blob): a successful
  // decode must re-encode into a payload that decodes again to the same
  // shard and metric counts.
  {
    prefixfilter::net::WireStats stats;
    if (prefixfilter::net::DecodeStatsPayload(data, size, &stats)) {
      std::vector<uint8_t> encoded;
      prefixfilter::net::EncodeStatsResponse(1, stats, &encoded);
      prefixfilter::net::WireStats again;
      if (!prefixfilter::net::DecodeStatsPayload(
              encoded.data() + prefixfilter::net::kFrameHeaderBytes,
              encoded.size() - prefixfilter::net::kFrameHeaderBytes,
              &again) ||
          again.shards.size() != stats.shards.size() ||
          again.metrics.size() != stats.metrics.size()) {
        __builtin_trap();  // decoded stats must round-trip
      }
      (void)obs::RenderPrometheusText(stats.metrics);
    }
  }

  // TRACES payload: a successful decode must re-encode into a payload that
  // decodes again to the same number of traces.
  {
    std::vector<obs::Trace> traces;
    if (prefixfilter::net::DecodeTracesPayload(data, size, &traces)) {
      std::vector<uint8_t> encoded;
      prefixfilter::net::EncodeTracesResponse(1, traces, &encoded);
      std::vector<obs::Trace> again;
      if (!prefixfilter::net::DecodeTracesPayload(
              encoded.data() + prefixfilter::net::kFrameHeaderBytes,
              encoded.size() - prefixfilter::net::kFrameHeaderBytes,
              &again) ||
          again.size() != traces.size()) {
        __builtin_trap();  // decoded traces must round-trip
      }
    }
  }
  return 0;
}
