// Exposition formats for MetricsRegistry snapshots.
//
// Two consumers, one sample model:
//  * the STATS wire payload carries EncodeMetricSamples bytes inside the
//    existing binary protocol (ByteWriter/ByteReader framing, bounds-checked
//    like every other payload parser in src/net/protocol.cc);
//  * the HTTP /metrics endpoint renders the same samples as Prometheus text
//    exposition format (dotted names become underscore-separated with a
//    "pf_" prefix; histograms expand to cumulative _bucket/_sum/_count
//    series with integer `le` upper bounds in nanoseconds).
#ifndef PREFIXFILTER_SRC_OBS_EXPOSITION_H_
#define PREFIXFILTER_SRC_OBS_EXPOSITION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/serialize.h"

namespace prefixfilter::obs {

// Appends a length-delimited binary encoding of `samples` to *out.
void EncodeMetricSamples(const std::vector<MetricSample>& samples,
                         std::vector<uint8_t>* out);

// Decodes samples appended by EncodeMetricSamples from *r.  False on
// malformed input (reader poisoned or bounds violated); *out untouched then.
bool DecodeMetricSamples(ByteReader* r, std::vector<MetricSample>* out);

// Renders samples as Prometheus text exposition format (version 0.0.4).
std::string RenderPrometheusText(const std::vector<MetricSample>& samples);

// "net.server.bytes.in" -> "net_server_bytes_in" (any byte outside
// [A-Za-z0-9_] becomes '_'); the renderer prepends the "pf_" namespace.
std::string PrometheusName(const std::string& dotted);

}  // namespace prefixfilter::obs

#endif  // PREFIXFILTER_SRC_OBS_EXPOSITION_H_
