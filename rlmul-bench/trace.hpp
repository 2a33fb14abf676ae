#pragma once
// Outside-in tracing for rlmul-bench. Spans are recorded only around
// calls into the library's public entry points:
//  - TracedMethod: a forwarding search::Method that times init() and
//    step() of the method it wraps;
//  - TracingCache: a forwarding synth::EvalCache that declines every
//    lookup and stores nothing, and records one span from each lookup
//    miss to the store of the same key (the synthesis of that design);
//  - the benchmark's own Driver / evaluator / serve-client calls.
// Spans stay in memory and are written as Chrome trace-event JSON when
// the run ends (open it in Perfetto or chrome://tracing).

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "search/method.hpp"
#include "synth/evaluator.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace rlmul::bench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  ///< since the tracer's epoch
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t search = 0;  ///< search / job id the span belongs to
  std::uint64_t tid = 0;     ///< small per-thread number
};

using Interval = std::pair<std::int64_t, std::int64_t>;

/// Total length covered by a set of (possibly overlapping) intervals.
std::int64_t union_ns(std::vector<Interval> iv);
/// Length of the union of `a` that lies inside the union of `b`.
std::int64_t overlap_ns(std::vector<Interval> a, std::vector<Interval> b);

class Tracer {
 public:
  Tracer();

  std::int64_t now_ns() const;
  /// Starts a span on the calling thread; the innermost open span of
  /// the thread becomes its parent. Returns its id.
  std::uint64_t open(const char* name, std::uint64_t search);
  void close(std::uint64_t id);
  /// Records a finished span (cross-thread spans such as synthesis).
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t parent, std::uint64_t search);
  /// Innermost open span id of the calling thread (0 if none).
  std::uint64_t current() const;

  /// All closed spans so far (copy).
  std::vector<Span> spans() const;
  /// Closed spans of one search with the given name, as intervals.
  std::vector<Interval> intervals(std::uint64_t search,
                                  const char* name) const;

  void write_chrome_json(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable util::Mutex mu_;
  std::vector<Span> done_ RLMUL_GUARDED_BY(mu_);
  std::unordered_map<std::uint64_t, Span> open_ RLMUL_GUARDED_BY(mu_);
  std::uint64_t next_id_ RLMUL_GUARDED_BY(mu_) = 1;
};

/// RAII span on the calling thread.
class Scope {
 public:
  Scope(Tracer* t, const char* name, std::uint64_t search)
      : t_(t), id_(t != nullptr ? t->open(name, search) : 0) {}
  ~Scope() {
    if (t_ != nullptr) t_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  std::uint64_t id_;
};

/// Forwarding decorator: times init() and step() of the wrapped method
/// ("method.init" / "method.step" spans under the current search id).
class TracedMethod final : public search::Method {
 public:
  TracedMethod(std::unique_ptr<search::Method> inner, Tracer* tracer,
               std::uint64_t search)
      : inner_(std::move(inner)), tracer_(tracer), search_(search) {}

  const char* name() const override { return inner_->name(); }
  int max_evals_per_step() const override {
    return inner_->max_evals_per_step();
  }
  void init(search::Context& ctx) override {
    Scope s(tracer_, "method.init", search_);
    inner_->init(ctx);
  }
  bool step(search::Context& ctx) override {
    Scope s(tracer_, "method.step", search_);
    return inner_->step(ctx);
  }
  void warm_start(search::Context& ctx,
                  const search::WarmStartRecords& records) override {
    inner_->warm_start(ctx, records);
  }
  void finish(search::Context& ctx) override { inner_->finish(ctx); }
  void save_state(search::BlobWriter& w) const override {
    inner_->save_state(w);
  }
  void load_state(search::BlobReader& r) override { inner_->load_state(r); }

 private:
  std::unique_ptr<search::Method> inner_;
  Tracer* tracer_;
  std::uint64_t search_;
};

/// Forwarding EvalCache that never hits and never stores: it only
/// turns the evaluator's lookup-miss → store pair into a
/// "synth.design" span. Installing it changes no result.
class TracingCache final : public synth::EvalCache {
 public:
  TracingCache(Tracer* tracer, std::uint64_t search)
      : tracer_(tracer), search_(search) {}

  bool lookup(const std::string& key, const ct::CompressorTree& tree,
              synth::DesignEval& out) override;
  void store(const std::string& key, const ct::CompressorTree& tree,
             const synth::DesignEval& eval) override;
  bool lookup_point(const std::string& key, const ppg::DesignPoint& point,
                    synth::DesignEval& out) override;
  void store_point(const std::string& key, const ppg::DesignPoint& point,
                   const synth::DesignEval& eval) override;

 private:
  void miss(const std::string& key);
  void stored(const std::string& key);

  struct Pending {
    std::int64_t start_ns = 0;
    std::uint64_t parent = 0;
  };
  Tracer* tracer_;
  std::uint64_t search_;
  util::Mutex mu_;
  std::unordered_map<std::string, Pending> pending_ RLMUL_GUARDED_BY(mu_);
};

}  // namespace rlmul::bench
