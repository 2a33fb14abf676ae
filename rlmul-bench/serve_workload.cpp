// serve_mix16: an in-process serve::Server on a unix socket over a
// fresh dsdb directory, driven through serve::Client connections:
//
//  - two submitters in a closed loop: submit a job (subscribed from
//    seq 0), wait for its terminal event, submit the next. Each
//    submitter alternates A2C tree-only jobs (4 EnvPool workers, so
//    evaluator batches coalesce) with joint CT+CPA+PPG SA jobs, and
//    every second pair repeats the pair before it, so about half the
//    jobs re-run a spec the daemon has already seen;
//  - one monitor in an open loop: a daemon-wide `status` request due
//    every 5 ms, timed from when it was due.
//
// Jobs are bounded by steps, not by an EDA budget, so each job's best
// cost does not depend on how jobs interleave: every one must equal a
// direct search::Driver run of the same spec (%.17g text).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/prctl.h>
#include <unistd.h>

#include "bench.hpp"
#include "checks.hpp"
#include "counters.hpp"
#include "search/driver.hpp"
#include "search/registry.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "trace.hpp"
#include "util/sync.hpp"

namespace rlmul::bench {

namespace {

namespace fs = std::filesystem;
using serve::json::Value;

constexpr int kSubmitters = 2;
constexpr int kRounds = 4;  ///< new (A2C, SA) pairs per submitter per pass
constexpr int kA2cSteps = 512;
constexpr int kSaSteps = 1000;
constexpr auto kMonitorPeriod = std::chrono::microseconds(5000);

/// Distinct job specs of a run: submitter s, round r, kind (0 = A2C
/// tree-only, 1 = joint SA) -> index s*kRounds*2 + r*2 + kind.
std::vector<serve::JobSpec> distinct_specs(std::uint64_t seed) {
  std::vector<serve::JobSpec> out;
  for (int s = 0; s < kSubmitters; ++s) {
    for (int r = 0; r < kRounds; ++r) {
      for (int kind = 0; kind < 2; ++kind) {
        serve::JobSpec spec;
        spec.bits = 16;
        spec.method = kind == 0 ? "a2c" : "sa";
        spec.steps = kind == 0 ? kA2cSteps : kSaSteps;
        spec.cpa_search = kind == 1;
        spec.ppg_search = kind == 1;
        spec.seed = derive_seed(seed, static_cast<std::uint64_t>(out.size()));
        out.push_back(spec);
      }
    }
  }
  return out;
}

/// One pass of submitter s: A B A' B' per round, where A'/B' repeat A/B.
std::vector<int> submit_order(int s) {
  std::vector<int> order;
  for (int r = 0; r < kRounds; ++r) {
    const int base = (s * kRounds + r) * 2;
    for (int rep = 0; rep < 2; ++rep) {
      order.push_back(base);
      order.push_back(base + 1);
    }
  }
  return order;
}

struct JobRecord {
  int spec = 0;
  double job_s = 0.0;         ///< submit -> terminal event
  double queue_wait_s = 0.0;  ///< submit -> `running` event
  double run_s = 0.0;         ///< `running` -> terminal event
  std::uint64_t steps = 0;
  std::uint64_t events = 0;
  std::string best_cost;  ///< %.17g of the final progress event
};

struct SubmitterResult {
  std::vector<JobRecord> jobs;
  std::uint64_t submits = 0;
  std::uint64_t busy_rejects = 0;
  std::vector<std::string> errors;
};

std::string g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Runs one job to its terminal event. Returns false (with *err) on a
/// failed job, a refused submit other than backpressure, or a gap in
/// the event stream. With a tracer, records the job's "serve.queue"
/// (submit -> running) and "serve.run" (running -> terminal) spans.
bool run_job(serve::Client& client, const serve::JobSpec& spec, int idx,
             Tracer* tracer, SubmitterResult& out, std::string* err) {
  JobRecord rec;
  rec.spec = idx;
  const Clock::time_point t0 = Clock::now();
  const std::int64_t t0_ns = tracer != nullptr ? tracer->now_ns() : 0;
  std::int64_t running_ns = t0_ns;
  std::uint64_t job = 0;
  for (;;) {
    Value req = Value::object();
    req["op"] = "submit";
    req["spec"] = serve::to_json(spec);
    req["subscribe"] = true;
    ++out.submits;
    const Value resp = client.call(req);
    if (resp.find("ok") != nullptr && resp.find("ok")->as_bool()) {
      job = resp.find("job")->as_u64();
      break;
    }
    const Value* e = resp.find("error");
    const std::string msg = e != nullptr ? e->as_string() : "no error text";
    if (msg.rfind("busy", 0) != 0) {
      *err = "submit refused: " + msg;
      return false;
    }
    ++out.busy_rejects;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Clock::time_point t_running = t0;
  std::uint64_t next_seq = 0;
  for (;;) {
    Value ev;
    if (!client.wait_event(&ev, 120000)) {
      *err = "no terminal event within 120 s";
      return false;
    }
    if (ev.find("job") == nullptr || ev.find("job")->as_u64() != job) continue;
    const std::uint64_t seq = ev.find("seq")->as_u64();
    if (seq != next_seq) {
      *err = "event gap: seq " + std::to_string(seq) + " after " +
             std::to_string(next_seq);
      return false;
    }
    ++next_seq;
    const std::string kind = ev.find("event")->as_string();
    if (kind == "progress") {
      rec.best_cost = g17(ev.find("best_cost")->as_double());
      rec.steps = ev.find("steps_done")->as_u64();
      continue;
    }
    const std::string state = ev.find("state")->as_string();
    if (state == "running") {
      t_running = Clock::now();
      if (tracer != nullptr) running_ns = tracer->now_ns();
    } else if (state == "done" || state == "failed" ||
               state == "cancelled") {
      const Clock::time_point t_end = Clock::now();
      if (state != "done") {
        const Value* e = ev.find("error");
        *err = "job ended " + state + (e ? ": " + e->as_string() : "");
        return false;
      }
      rec.job_s = std::chrono::duration<double>(t_end - t0).count();
      rec.queue_wait_s = std::chrono::duration<double>(t_running - t0).count();
      rec.run_s = std::chrono::duration<double>(t_end - t_running).count();
      rec.events = next_seq;
      out.jobs.push_back(rec);
      if (tracer != nullptr) {
        tracer->record("serve.queue", t0_ns, running_ns, 0, job);
        tracer->record("serve.run", running_ns, tracer->now_ns(), 0, job);
      }
      return true;
    }
  }
}

/// A daemon on its own thread, listening once the constructor returns.
class Daemon {
 public:
  explicit Daemon(const std::string& dir) {
    serve::ServerOptions so;
    so.socket_path = dir + "/sock";
    so.scheduler.dsdb_dir = dir + "/dsdb";
    socket_ = so.socket_path;
    server_ = std::make_unique<serve::Server>(so);
    thread_ = std::thread([this] { server_->run(); });
    // Listening = a client can connect and get a ping answered.
    for (int i = 0;; ++i) {
      try {
        serve::Client c(socket_);
        c.ping();
        break;
      } catch (const std::exception&) {
        if (i > 20000) {
          stop();
          throw;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  void stop() {
    if (!thread_.joinable()) return;
    server_->request_shutdown();
    thread_.join();
  }
  const std::string& socket() const { return socket_; }
  serve::Server& server() { return *server_; }

 private:
  std::string socket_;
  std::unique_ptr<serve::Server> server_;
  std::thread thread_;
};

struct Session {
  std::vector<JobRecord> jobs;
  std::vector<std::string> errors;
  std::uint64_t submits = 0;
  std::uint64_t status_requests = 0;
  std::uint64_t status_ok = 0;  ///< status calls answered "ok":true
  std::uint64_t busy_rejects = 0;
  Samples status_us;
  Samples late_ms;
  double window_s = 0.0;
  Counters counters;  ///< perf counters over the session
  std::uint64_t journal_bytes = 0;
  double hypervolume = 0.0;
};

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec) && e.path().filename() != "LOCK") {
      total += e.file_size(ec);
    }
  }
  return total;
}

/// Registers traced aliases of the two job methods: each job's method
/// is wrapped in a TracedMethod (search id = construction order).
void register_traced_methods(Tracer* tracer) {
  static std::atomic<std::uint64_t> next_id{1};
  for (const char* name : {"sa", "a2c"}) {
    const std::string inner(name);
    search::register_method(
        std::string("traced-") + name,
        [inner, tracer](const search::MethodConfig& cfg) {
          return std::unique_ptr<search::Method>(std::make_unique<TracedMethod>(
              search::make_method(inner, cfg), tracer, next_id.fetch_add(1)));
        });
  }
}

/// The traced twin of a spec: same MethodConfig through the alias
/// (resolve_config only splits A2C steps for the name "a2c").
serve::JobSpec traced_spec(serve::JobSpec spec) {
  if (spec.method == "a2c") {
    spec.steps = serve::resolve_config(spec).steps;
  }
  spec.method = "traced-" + spec.method;
  return spec;
}

Session run_session(const std::vector<serve::JobSpec>& specs, double seconds,
                    const std::string& dir, Tracer* tracer,
                    const HvRef& ref) {
  Session out;
  auto daemon = std::make_unique<Daemon>(dir);
  const Counters c0 = Counters::now();

  std::atomic<bool> submitters_done{false};
  std::vector<SubmitterResult> results(kSubmitters);
  std::vector<std::thread> submitters;
  std::thread monitor;
  // Joins every started thread on every path out of this function:
  // submitters first, then the monitor they keep running.
  struct JoinAll {
    std::vector<std::thread>& submitters;
    std::atomic<bool>& done;
    std::thread& monitor;
    ~JoinAll() {
      for (std::thread& t : submitters) {
        if (t.joinable()) t.join();
      }
      done.store(true);
      if (monitor.joinable()) monitor.join();
    }
  } join_all{submitters, submitters_done, monitor};
  const Clock::time_point start = Clock::now();

  // Monitor: open loop, one daemon-wide status request every period.
  monitor = std::thread([&] {
    // Without this the default 50 us timer slack blurs the schedule.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    try {
      serve::Client client(daemon->socket());
      Clock::time_point due = Clock::now();
      while (!submitters_done.load()) {
        due += kMonitorPeriod;
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        Value req = Value::object();
        req["op"] = "status";
        const Value resp = client.call(req);
        const Clock::time_point got = Clock::now();
        ++out.status_requests;
        if (resp.find("ok") != nullptr && resp.find("ok")->as_bool()) {
          ++out.status_ok;
        }
        out.late_ms.add(
            std::chrono::duration<double, std::milli>(sent - due).count());
        out.status_us.add(
            std::chrono::duration<double, std::micro>(got - due).count());
      }
    } catch (const std::exception& e) {
      out.errors.push_back(std::string("monitor: ") + e.what());
    }
  });

  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      SubmitterResult& res = results[static_cast<std::size_t>(s)];
      const std::vector<int> order = submit_order(s);
      try {
        serve::Client client(daemon->socket());
        for (std::size_t k = 0;; ++k) {
          if (k >= order.size() && seconds_since(start) >= seconds) break;
          const int idx = order[k % order.size()];
          const serve::JobSpec spec =
              tracer != nullptr
                  ? traced_spec(specs[static_cast<std::size_t>(idx)])
                     : specs[static_cast<std::size_t>(idx)];
          std::string err;
          if (!run_job(client, spec, idx, tracer, res, &err)) {
            res.errors.push_back("job spec " + std::to_string(idx) + ": " +
                                 err);
          }
        }
      } catch (const std::exception& e) {
        res.errors.push_back(std::string("submitter: ") + e.what());
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  out.window_s = seconds_since(start);
  submitters_done.store(true);
  monitor.join();

  for (const SubmitterResult& r : results) {
    out.jobs.insert(out.jobs.end(), r.jobs.begin(), r.jobs.end());
    out.submits += r.submits;
    out.busy_rejects += r.busy_rejects;
    out.errors.insert(out.errors.end(), r.errors.begin(), r.errors.end());
  }

  std::vector<pareto::Point> pts;
  if (dsdb::Store* store = daemon->server().scheduler().store()) {
    for (const dsdb::Record& rec : store->all_records()) {
      for (const synth::SynthesisResult& r : rec.eval.per_target) {
        pts.push_back({r.area_um2, r.delay_ns, 0});
      }
    }
  }
  out.hypervolume = normalized_hypervolume(pts, ref);
  daemon.reset();  // drains the scheduler, flushes and closes the store
  out.counters = Counters::now() - c0;
  out.journal_bytes = dir_bytes(dir + "/dsdb");
  return out;
}

/// Direct search::Driver run of a job spec: the reference best cost.
std::string direct_best_cost(const serve::JobSpec& spec) {
  synth::DesignEvaluator evaluator(serve::resolve_spec(spec));
  search::DriverOptions dopts;
  dopts.eda_budget = spec.budget;
  search::Driver driver(evaluator, dopts);
  auto method =
      search::make_method(spec.method, serve::resolve_config(spec));
  return g17(driver.run(*method).best_cost);
}

}  // namespace

Report run_serve_workload(const Options& opts) {
  Report rep;
  const std::vector<serve::JobSpec> specs = distinct_specs(opts.seed);
  const std::string base = opts.work_dir + "/serve-" +
                           std::to_string(static_cast<long>(getpid()));
  fs::remove_all(base);
  fs::create_directories(base);

  // Set-up: store open + daemon listening, seven times, fresh dirs.
  Samples setup;
  for (int i = 0; i < 7; ++i) {
    const std::string dir = base + "/setup" + std::to_string(i);
    fs::create_directories(dir);
    const Clock::time_point t0 = Clock::now();
    Daemon d(dir);
    setup.add(seconds_since(t0));
    d.stop();
  }

  // Reference corner for the hypervolume: the Wallace design.
  HvRef ref;
  {
    ppg::MultiplierSpec spec;
    spec.bits = 16;
    synth::DesignEvaluator ev(spec);
    ref = hv_reference(ev.evaluate(ppg::initial_tree(spec)));
  }

  std::unique_ptr<Tracer> tracer;
  std::vector<Session> sessions;
  if (!opts.trace) {
    fs::create_directories(base + "/run");
    sessions.push_back(
        run_session(specs, opts.seconds, base + "/run", nullptr, ref));
  } else {
    // Untraced then traced half-windows, each on a fresh daemon.
    tracer = std::make_unique<Tracer>();
    register_traced_methods(tracer.get());
    fs::create_directories(base + "/plain");
    fs::create_directories(base + "/traced");
    sessions.push_back(
        run_session(specs, opts.seconds / 2, base + "/plain", nullptr, ref));
    sessions.push_back(
        run_session(specs, opts.seconds / 2, base + "/traced", tracer.get(),
                    ref));
  }
  const double rss = peak_rss_mb();

  // -- correctness gate ------------------------------------------------
  std::map<int, std::string> reference;
  for (const Session& s : sessions) {
    for (const std::string& e : s.errors) rep.fail(e);
    rep.attempted += s.submits + s.status_requests;
    rep.check(s.status_ok == s.status_requests,
              "status requests without an ok response");
    for (const JobRecord& j : s.jobs) {
      auto it = reference.find(j.spec);
      if (it == reference.end()) {
        it = reference
                 .emplace(j.spec, direct_best_cost(
                                      specs[static_cast<std::size_t>(j.spec)]))
                 .first;
      }
      rep.check(j.best_cost == it->second,
                "job spec " + std::to_string(j.spec) + ": best_cost " +
                    j.best_cost + " != direct run " + it->second);
    }
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    rep.check(reference.count(static_cast<int>(i)) != 0,
              "spec " + std::to_string(i) + " never completed");
  }
  std::error_code ec;
  fs::remove_all(base, ec);

  // -- metrics ---------------------------------------------------------
  const Session& plain = sessions.front();
  Samples run, job, step, queue_wait;
  for (const JobRecord& j : plain.jobs) {
    run.add(j.run_s);
    job.add(j.job_s);
    queue_wait.add(j.queue_wait_s);
    if (j.steps > 0) step.add(j.run_s * 1e3 / static_cast<double>(j.steps));
  }
  double best = 0.0;
  for (const auto& [idx, cost] : reference) best += std::stod(cost);
  best /= static_cast<double>(std::max<std::size_t>(1, reference.size()));

  if (!opts.trace) {
    rep.put("setup_s", setup, setup.median());
    rep.put("search_s", run, run.median());
    rep.put("designs_per_s",
            static_cast<double>(plain.counters.unique_evals) / plain.window_s);
    rep.put("step_ms_p50", step, step.percentile(50));
    rep.put("step_ms_p90", step, step.percentile(90));
    rep.put("best_cost", best);
    rep.put("hypervolume", plain.hypervolume);
    rep.put("peak_rss_mb", rss);
    rep.put("jobs_per_s",
            static_cast<double>(plain.jobs.size()) / plain.window_s);
    rep.put("job_s_p50", job, job.percentile(50));
    rep.put("job_s_p90", job, job.percentile(90));
    rep.put("status_us_p50", plain.status_us,
            plain.status_us.percentile(50));
    rep.put("status_us_p90", plain.status_us,
            plain.status_us.percentile(90));
  } else {
    const Session& t = sessions.back();
    const double n =
        static_cast<double>(std::max<std::size_t>(1, t.jobs.size()));
    Samples t_run, t_wait;
    double steps = 0.0;
    for (const JobRecord& j : t.jobs) {
      t_run.add(j.run_s);
      t_wait.add(j.queue_wait_s);
      steps += static_cast<double>(j.steps);
    }
    double method_s = 0.0, init_s = 0.0;
    for (const Span& s : tracer->spans()) {
      const double d = static_cast<double>(s.end_ns - s.start_ns) / 1e9;
      if (std::string(s.name) == "method.step") method_s += d;
      if (std::string(s.name) == "method.init") init_s += d;
    }
    const Counters& c = t.counters;
    rep.put("search.steps", steps / n);
    rep.put("search.method_s", method_s / n);
    rep.put("search.init_s", init_s / n);
    put_counter_metrics(rep, c, n, static_cast<double>(c.unique_evals),
                        static_cast<double>(c.cache_hits),
                        static_cast<double>(c.inflight_waits));
    rep.put("nn.share",
            ratio(static_cast<double>(c.nn_time_us) / 1e6, t_run.sum()));
    rep.put("dsdb.journal_bytes",
            static_cast<double>(t.journal_bytes));
    rep.put("serve.queue_wait_s", t_wait, t_wait.median());
    rep.put("serve.run_s", t_run, t_run.median());
    std::uint64_t events = 0;
    for (const JobRecord& j : t.jobs) events += j.events;
    rep.put("serve.events", static_cast<double>(events));
    rep.put("serve.busy_rejects",
            static_cast<double>(t.busy_rejects));
    rep.put("serve.monitor_late_ms_p90", t.late_ms,
            t.late_ms.percentile(90));
    rep.put("trace.unattributed_s", t_run.mean() - method_s / n);
    rep.put("trace.overhead_frac",
            ratio(t_run.median(), run.median()) - 1.0);
    tracer->write_chrome_json(opts.trace_path);
  }

  // Layer mix the workload was chosen for (recorded, not gated).
  Value lm = layer_mix(plain.counters, run.sum(),
                       static_cast<double>(plain.jobs.size()));
  lm["dsdb.hits"] = static_cast<double>(plain.counters.dsdb_hits);
  rep.detail["layer_mix"] = lm;
  Value wl = Value::object();
  wl["submitters"] = kSubmitters;
  wl["distinct_specs"] = static_cast<std::uint64_t>(specs.size());
  wl["jobs"] = static_cast<std::uint64_t>(plain.jobs.size());
  wl["a2c_steps"] = kA2cSteps;
  wl["sa_steps"] = kSaSteps;
  wl["monitor_period_us"] =
      static_cast<std::uint64_t>(kMonitorPeriod.count());
  wl["step_threads"] = serve::SchedulerOptions{}.step_threads;
  wl["env_pool_workers"] = search::MethodConfig{}.threads;
  rep.detail["workload"] = wl;
  return rep;
}

}  // namespace rlmul::bench
