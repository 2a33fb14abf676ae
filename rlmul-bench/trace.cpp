#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>

namespace rlmul::bench {

namespace {

thread_local std::vector<std::uint64_t> t_open_stack;

std::uint64_t thread_number() {
  static std::atomic<std::uint64_t> next{1};
  thread_local const std::uint64_t mine = next.fetch_add(1);
  return mine;
}

/// Sorted, merged copy of `iv`.
std::vector<Interval> merged(std::vector<Interval> iv) {
  std::sort(iv.begin(), iv.end());
  std::vector<Interval> out;
  for (const Interval& x : iv) {
    if (x.second <= x.first) continue;
    if (!out.empty() && x.first <= out.back().second) {
      out.back().second = std::max(out.back().second, x.second);
    } else {
      out.push_back(x);
    }
  }
  return out;
}

}  // namespace

std::int64_t union_ns(std::vector<Interval> iv) {
  std::int64_t total = 0;
  for (const Interval& x : merged(std::move(iv))) total += x.second - x.first;
  return total;
}

std::int64_t overlap_ns(std::vector<Interval> a, std::vector<Interval> b) {
  const std::vector<Interval> ma = merged(std::move(a));
  const std::vector<Interval> mb = merged(std::move(b));
  std::int64_t total = 0;
  std::size_t j = 0;
  for (const Interval& x : ma) {
    while (j < mb.size() && mb[j].second <= x.first) ++j;
    for (std::size_t k = j; k < mb.size() && mb[k].first < x.second; ++k) {
      const std::int64_t lo = std::max(x.first, mb[k].first);
      const std::int64_t hi = std::min(x.second, mb[k].second);
      if (hi > lo) total += hi - lo;
    }
  }
  return total;
}

Tracer::Tracer() : epoch_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::uint64_t Tracer::current() const {
  return t_open_stack.empty() ? 0 : t_open_stack.back();
}

std::uint64_t Tracer::open(const char* name, std::uint64_t search) {
  Span s;
  s.name = name;
  s.parent = current();
  s.search = search;
  s.tid = thread_number();
  s.start_ns = now_ns();
  {
    util::LockGuard lock(mu_);
    s.id = next_id_++;
    open_.emplace(s.id, s);
  }
  t_open_stack.push_back(s.id);
  return s.id;
}

void Tracer::close(std::uint64_t id) {
  const std::int64_t end = now_ns();
  if (!t_open_stack.empty() && t_open_stack.back() == id) {
    t_open_stack.pop_back();
  }
  util::LockGuard lock(mu_);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  it->second.end_ns = end;
  done_.push_back(it->second);
  open_.erase(it);
}

void Tracer::record(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t parent,
                    std::uint64_t search) {
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.parent = parent;
  s.search = search;
  s.tid = thread_number();
  util::LockGuard lock(mu_);
  s.id = next_id_++;
  done_.push_back(s);
}

std::vector<Span> Tracer::spans() const {
  util::LockGuard lock(mu_);
  return done_;
}

std::vector<Interval> Tracer::intervals(std::uint64_t search,
                                        const char* name) const {
  const std::string want(name);
  std::vector<Interval> out;
  util::LockGuard lock(mu_);
  for (const Span& s : done_) {
    if (s.search == search && want == s.name) {
      out.emplace_back(s.start_ns, s.end_ns);
    }
  }
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace: " + path);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  bool first = true;
  for (const Span& s : spans()) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%llu,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"search\":%llu}}",
                 first ? "" : ",\n", s.name,
                 static_cast<unsigned long long>(s.search),
                 static_cast<unsigned long long>(s.tid),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.search));
    first = false;
  }
  std::fputs("\n]}\n", f);
  std::fclose(f);
}

void TracingCache::miss(const std::string& key) {
  const Pending p{tracer_->now_ns(), tracer_->current()};
  util::LockGuard lock(mu_);
  pending_[key] = p;
}

void TracingCache::stored(const std::string& key) {
  const std::int64_t end = tracer_->now_ns();
  Pending p;
  {
    util::LockGuard lock(mu_);
    auto it = pending_.find(key);
    if (it == pending_.end()) return;
    p = it->second;
    pending_.erase(it);
  }
  tracer_->record("synth.design", p.start_ns, end, p.parent, search_);
}

bool TracingCache::lookup(const std::string& key, const ct::CompressorTree&,
                          synth::DesignEval&) {
  miss(key);
  return false;
}

void TracingCache::store(const std::string& key, const ct::CompressorTree&,
                         const synth::DesignEval&) {
  stored(key);
}

bool TracingCache::lookup_point(const std::string& key,
                                const ppg::DesignPoint&, synth::DesignEval&) {
  miss(key);
  return false;
}

void TracingCache::store_point(const std::string& key,
                               const ppg::DesignPoint&,
                               const synth::DesignEval&) {
  stored(key);
}

}  // namespace rlmul::bench
