#include "obs/report.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "obs/json.h"
#include "obs/trace.h"

namespace xgw::obs {

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string fnv1a_hex(std::string_view text) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fnv1a(text)));
  return buf;
}

std::string RunReportDoc::to_json() const {
  std::ostringstream os;
  char num[64];
  auto put_double = [&](double v) {
    std::snprintf(num, sizeof(num), "%.8g", v);
    os << num;
  };
  os << "{\n  \"job\": " << json::quote(job) << ",\n  \"config_hash\": "
     << json::quote(config_hash) << ",\n  \"total_seconds\": ";
  put_double(total_seconds);
  os << ",\n  \"total_flops\": " << total_flops;
  if (peak_gflops > 0.0) {
    os << ",\n  \"peak_gflops\": ";
    put_double(peak_gflops);
  }
  if (mem_bandwidth_gbs > 0.0) {
    os << ",\n  \"mem_bandwidth_gbs\": ";
    put_double(mem_bandwidth_gbs);
  }
  if (gemm_roofline_gflops > 0.0) {
    os << ",\n  \"gemm_roofline_gflops\": ";
    put_double(gemm_roofline_gflops);
  }
  os << ",\n  \"stages\": [\n";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const StageReport& s = stages[i];
    os << "    {\"name\": " << json::quote(s.name) << ", \"seconds\": ";
    put_double(s.seconds);
    os << ", \"calls\": " << s.calls << ", \"flops\": " << s.flops
       << ", \"bytes\": " << s.bytes << ", \"peak_bytes\": " << s.peak_bytes
       << ", \"gflops\": ";
    put_double(s.gflops);
    if (s.roofline_gflops > 0.0) {
      os << ", \"roofline_gflops\": ";
      put_double(s.roofline_gflops);
      os << ", \"pct_roofline\": ";
      put_double(100.0 * s.gflops / s.roofline_gflops);
    }
    os << "}" << (i + 1 < stages.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

bool RunReportDoc::write(const std::string& path) const {
  const std::string doc = to_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot write run report %s\n", path.c_str());
    return false;
  }
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
  return true;
}

RunReportDoc build_run_report(const TraceRecorder& rec, std::string job,
                              std::string_view config_text, double peak_gflops,
                              double mem_bandwidth_gbs) {
  RunReportDoc doc;
  doc.job = std::move(job);
  doc.config_hash = fnv1a_hex(config_text);
  doc.peak_gflops = peak_gflops;
  doc.mem_bandwidth_gbs = mem_bandwidth_gbs;
  doc.total_flops = rec.total_flops();
  for (const auto& [name, a] : rec.aggregate()) {
    StageReport s;
    s.name = name;
    s.seconds = a.seconds;
    s.calls = a.calls;
    s.flops = a.flops;
    s.bytes = a.bytes;
    s.peak_bytes = a.peak_bytes;
    s.gflops =
        a.seconds > 0.0 ? static_cast<double>(a.flops) / a.seconds / 1e9 : 0.0;
    if (peak_gflops > 0.0 && mem_bandwidth_gbs > 0.0 && s.bytes > 0) {
      const double ai = static_cast<double>(s.flops) /
                        static_cast<double>(s.bytes);  // FLOP per byte
      s.roofline_gflops = std::min(peak_gflops, ai * mem_bandwidth_gbs);
    }
    doc.total_seconds += s.seconds;
    doc.stages.push_back(std::move(s));
  }
  // Largest time consumers first: the report reads like a profile.
  std::stable_sort(doc.stages.begin(), doc.stages.end(),
                   [](const StageReport& a, const StageReport& b) {
                     return a.seconds > b.seconds;
                   });
  return doc;
}

}  // namespace xgw::obs
