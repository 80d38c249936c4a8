#include "tracer.h"

#include <cstdio>
#include <limits>

namespace perfbench {

namespace {
constexpr std::uint32_t kNoParent = std::numeric_limits<std::uint32_t>::max();
}  // namespace

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

std::uint32_t Tracer::intern(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

Tracer::Thread& Tracer::local() {
  thread_local Thread* mine = nullptr;
  if (mine == nullptr) {
    const std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::make_unique<Thread>());
    mine = threads_.back().get();
  }
  return *mine;
}

void Tracer::open(std::uint32_t name, std::uint64_t request) {
  Thread& t = local();
  std::uint32_t raw_index = kNoParent;
  if (t.raw.size() < kRawCap) {
    const std::uint32_t parent =
        t.stack.empty() ? kNoParent : t.stack.back().raw_index;
    raw_index = static_cast<std::uint32_t>(t.raw.size());
    t.raw.push_back(Raw{name, parent, request, 0, 0});
  }
  t.stack.push_back(Frame{name, request, now_ns(), 0, raw_index});
}

void Tracer::close() {
  const std::int64_t end = now_ns();
  Thread& t = local();
  const Frame f = t.stack.back();
  t.stack.pop_back();
  finish(t, f, end);
}

void Tracer::record(std::uint32_t name, std::uint64_t request,
                    std::int64_t start_ns, std::int64_t end_ns) {
  Thread& t = local();
  std::uint32_t raw_index = kNoParent;
  if (t.raw.size() < kRawCap) {
    const std::uint32_t parent =
        t.stack.empty() ? kNoParent : t.stack.back().raw_index;
    raw_index = static_cast<std::uint32_t>(t.raw.size());
    t.raw.push_back(Raw{name, parent, request, 0, 0});
  }
  finish(t, Frame{name, request, start_ns, 0, raw_index}, end_ns);
}

void Tracer::finish(Thread& t, const Frame& f, std::int64_t end_ns) {
  const std::int64_t dur = end_ns - f.start_ns;
  if (t.totals.size() <= f.name) t.totals.resize(f.name + 1);
  SpanTotals& s = t.totals[f.name];
  ++s.count;
  s.total_ns += dur;
  s.self_ns += dur - f.child_ns;
  if (!t.stack.empty()) t.stack.back().child_ns += dur;
  if (f.raw_index != kNoParent) {
    t.raw[f.raw_index].start_ns = f.start_ns;
    t.raw[f.raw_index].end_ns = end_ns;
  }
}

std::map<std::string, SpanTotals> Tracer::totals() {
  const std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, SpanTotals> out;
  for (const auto& t : threads_) {
    for (std::size_t i = 0; i < t->totals.size(); ++i) {
      const SpanTotals& s = t->totals[i];
      if (s.count == 0) continue;
      SpanTotals& o = out[names_[i]];
      o.count += s.count;
      o.total_ns += s.total_ns;
      o.self_ns += s.self_ns;
    }
  }
  return out;
}

void Tracer::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& t : threads_) {
    t->raw.clear();
    t->totals.clear();
  }
}

bool Tracer::write_json(const std::string& path) {
  const std::map<std::string, SpanTotals> sums = totals();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(out, "{\"totals\":{");
  bool first = true;
  for (const auto& [name, s] : sums) {
    std::fprintf(out, "%s\"%s\":{\"count\":%llu,\"total_ns\":%lld,"
                 "\"self_ns\":%lld}",
                 first ? "" : ",", name.c_str(),
                 static_cast<unsigned long long>(s.count),
                 static_cast<long long>(s.total_ns),
                 static_cast<long long>(s.self_ns));
    first = false;
  }
  std::fprintf(out, "},\"spans\":[");
  first = true;
  for (std::size_t ti = 0; ti < threads_.size(); ++ti) {
    for (const Raw& r : threads_[ti]->raw) {
      if (r.end_ns == 0) continue;  // Still open: never closed.
      std::fprintf(out,
                   "%s{\"thread\":%zu,\"name\":\"%s\",\"parent\":%lld,"
                   "\"request\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}",
                   first ? "" : ",", ti, names_[r.name].c_str(),
                   r.parent == kNoParent ? -1LL
                                         : static_cast<long long>(r.parent),
                   static_cast<unsigned long long>(r.request),
                   static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns));
      first = false;
    }
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
