#include "trace.hpp"

#include <iomanip>

namespace pb {

std::int32_t Trace::open(const char* name) {
  const auto id = static_cast<std::int32_t>(spans_.size());
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back().id;
  if (!stack_.empty()) stack_.back().has_children = true;
  spans_.push_back({name, now_ns(), 0, parent, false});
  stack_.push_back({id, 0, false});
  return id;
}

void Trace::close(std::int32_t id) {
  // RAII nesting makes `id` the innermost open span.
  const Open open = stack_.back();
  stack_.pop_back();
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = now_ns();
  const std::int64_t duration = span.duration_ns();
  if (open.has_children) {
    const std::int64_t residual = duration - open.children_ns;
    spans_.push_back({span.name, span.end_ns - residual, span.end_ns, id, true});
  }
  if (!stack_.empty()) stack_.back().children_ns += duration;
}

double Trace::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second : 0.0;
}

std::map<std::string, Trace::Total> Trace::totals() const {
  std::map<std::string, Total> out;
  for (const Span& span : spans_) {
    Total& total = out[span.residual ? std::string(span.name) + "/other" : span.name];
    total.total_us += static_cast<double>(span.duration_ns()) / 1e3;
    ++total.count;
  }
  return out;
}

void Trace::write_chrome_json(std::ostream& out, std::size_t max_spans) const {
  // A span's root; parents precede their children in spans_.
  std::vector<std::size_t> root(spans_.size());
  std::vector<std::size_t> tree_size(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int32_t parent = spans_[i].parent;
    root[i] = parent < 0 ? i : root[static_cast<std::size_t>(parent)];
    ++tree_size[root[i]];
  }
  std::vector<bool> keep_tree(spans_.size(), false);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) continue;
    if (kept + tree_size[i] > max_spans) break;
    keep_tree[i] = true;
    kept += tree_size[i];
  }

  out << std::setprecision(17) << "{\"traceEvents\":[\n";
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (!keep_tree[root[i]]) continue;
    const Span& span = spans_[i];
    out << (first ? "" : ",\n") << "{\"name\":\"" << span.name << (span.residual ? "/other" : "")
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(span.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(span.duration_ns()) / 1e3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent << "}}";
    first = false;
  }
  const double end_us = spans_.empty() ? 0.0 : static_cast<double>(spans_.back().end_ns) / 1e3;
  for (const auto& [name, value] : counters_) {
    out << (first ? "" : ",\n") << "{\"name\":\"" << name
        << "\",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":" << end_us
        << ",\"args\":{\"value\":" << value << "}}";
    first = false;
  }
  out << "\n]}\n";
}

}  // namespace pb
