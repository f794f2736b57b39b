#include "tracer.h"

#include <cstdio>
#include <cstring>

namespace servebench {

void Summarize(const std::vector<Span>& spans, TraceSummary* summary) {
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const double duration = static_cast<double>(span.end_ns - span.start_ns);
    const double self = duration - child_ns[i];
    OpStats& stats = summary->ops[static_cast<size_t>(span.op)];
    ++stats.count;
    stats.total_ns += duration;
    stats.self_ns += self;
    stats.durations_ns.push_back(duration);
    if (IsShadow(span.op)) {
      if (span.parent < 0) summary->shadow_ns += duration;
    } else {
      summary->covered_ns += self;
    }
  }
}

bool WriteSpans(const std::string& path,
                const std::vector<const std::vector<Span>*>& buffers) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  std::string header = "servebench-spans v1 record=32 ops=";
  for (int op = 0; op < static_cast<int>(Op::kCount); ++op) {
    if (op > 0) header += ',';
    header += OpName(static_cast<Op>(op));
  }
  header += '\n';
  bool ok = std::fwrite(header.data(), 1, header.size(), file) == header.size();
  unsigned char record[32];
  for (size_t thread = 0; thread < buffers.size() && ok; ++thread) {
    for (const Span& span : *buffers[thread]) {
      const uint16_t thread_id = static_cast<uint16_t>(thread);
      const uint16_t op = static_cast<uint16_t>(span.op);
      std::memcpy(record + 0, &span.start_ns, 8);
      std::memcpy(record + 8, &span.end_ns, 8);
      std::memcpy(record + 16, &span.event, 8);
      std::memcpy(record + 24, &span.parent, 4);
      std::memcpy(record + 28, &thread_id, 2);
      std::memcpy(record + 30, &op, 2);
      if (std::fwrite(record, 1, sizeof(record), file) != sizeof(record)) {
        ok = false;
        break;
      }
    }
  }
  return std::fclose(file) == 0 && ok;
}

}  // namespace servebench
