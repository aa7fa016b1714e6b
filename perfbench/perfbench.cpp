// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload paper-batch|large-solve|serve --seed N
//             --seconds S --trace 0|1 [--smoke] [--corrupt-plan]
//             [--out-dir DIR]
//
// One run builds the workload's inputs from --seed (set-up, timed and
// repeated), then repeats the workload's fixed, iteration-capped
// operation set ("pass") for at least S seconds, checks every output and
// prints the end-to-end metrics. With --trace 1 it instead alternates
// traced and untraced passes, runs a layer probe over the workload's own
// instances and prints the per-layer metrics, each derived from spans the
// benchmark records around its own calls into one src/ layer. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. A wrong output (invalid schedule, misreported cost, a cache
// hit that is not the cold plan, a repaired cost that is not the plan's
// evaluated cost) makes the run fail with exit code 1.
//
// No timed operation is limited by a wall clock: every solve uses
// budget_ms = 0 plus an iteration cap. The schedulers whose deadlines
// SchedulerOptions cannot remove are never called (see README.md).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/trace.hpp"
#include "src/bsp/greedy_scheduler.hpp"
#include "src/daemon/client.hpp"
#include "src/daemon/protocol.hpp"
#include "src/daemon/schedule_cache.hpp"
#include "src/daemon/server.hpp"
#include "src/graph/dag_io.hpp"
#include "src/graph/generators.hpp"
#include "src/holistic/lns.hpp"
#include "src/holistic/repair.hpp"
#include "src/holistic/scheduler.hpp"
#include "src/holistic/shard.hpp"
#include "src/model/machine_registry.hpp"
#include "src/model/validate.hpp"
#include "src/runner/batch_runner.hpp"
#include "src/twostage/memory_completion.hpp"
#include "src/workload/trace.hpp"
#include "src/workload/workload_registry.hpp"

namespace perfbench {
namespace {

using namespace mbsp;
using namespace mbsp::daemon;

Tracer g_tracer;
using Scope = Tracer::Scope;

double elapsed_ms(Clock::time_point since) {
  return ms_between(since, Clock::now());
}

// ---------------------------------------------------------------------------
// Statistics.

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double geomean(const std::vector<double>& v) {
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return v.empty() ? 0 : std::exp(log_sum / static_cast<double>(v.size()));
}

/// VmHWM of this process image. getrusage's ru_maxrss is not used: across
/// exec it keeps the launching process's peak (e.g. the Python wrapper's).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Correctness. Any failed check fails the whole run.

class Checker {
 public:
  void fail(const std::string& message) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (failures_.size() < 20) failures_.push_back(message);
    ++count_;
  }
  bool ok() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return count_ == 0;
  }
  void report() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const std::string& f : failures_) {
      std::fprintf(stderr, "perfbench: WRONG OUTPUT: %s\n", f.c_str());
    }
    if (count_ > failures_.size()) {
      std::fprintf(stderr, "perfbench: ... %zu wrong outputs in total\n",
                   count_);
    }
  }
  /// --corrupt-plan: the next checked schedule loses its last superstep,
  /// which must trip validate() (the smoke test relies on it).
  void arm_corruption() { corrupt_.store(true); }
  bool take_corruption() { return corrupt_.exchange(false); }

 private:
  mutable std::mutex mutex_;
  std::vector<std::string> failures_;
  std::size_t count_ = 0;
  std::atomic<bool> corrupt_{false};
};

Checker g_check;

/// validate()-clean, and the reported cost equals a recomputed
/// schedule_cost bitwise.
void check_schedule(const MbspInstance& inst, MbspSchedule schedule,
                    double reported_cost, const std::string& what) {
  if (g_check.take_corruption() && !schedule.steps.empty()) {
    schedule.steps.pop_back();
  }
  const ValidationResult valid = validate(inst, schedule);
  if (!valid) {
    g_check.fail(what + ": invalid schedule: " + valid.error);
    return;
  }
  const double cost = schedule_cost(inst, schedule, CostModel::kSynchronous);
  if (cost != reported_cost) {
    g_check.fail(what + ": reported cost " + std::to_string(reported_cost) +
                 " != recomputed " + std::to_string(cost));
  }
}

/// Completes `plan` with evaluate_plan and checks it like check_schedule.
double check_plan(const MbspInstance& inst, const ComputePlan& plan,
                  double reported_cost, const std::string& what) {
  const PlanValidation plan_ok = validate_plan(inst.dag, plan);
  if (!plan_ok) {
    g_check.fail(what + ": invalid plan: " + plan_ok.error);
    return reported_cost;
  }
  MbspSchedule schedule;
  const double evaluated = evaluate_plan(inst, plan, LnsOptions{}, &schedule);
  if (evaluated != reported_cost) {
    g_check.fail(what + ": reported cost " + std::to_string(reported_cost) +
                 " != evaluate_plan " + std::to_string(evaluated));
  }
  check_schedule(inst, std::move(schedule), evaluated, what);
  return evaluated;
}

std::string plan_bytes(const ComputePlan& plan) {
  WireWriter w;
  encode_plan(w, plan);
  return w.take();
}

// ---------------------------------------------------------------------------
// Shared input helpers (each call into a layer sits in a span).

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

ComputeDag make_dag(const std::string& spec, std::uint64_t seed) {
  Scope span(g_tracer, "workload.gen");
  std::string error;
  auto dag = WorkloadRegistry::global().make_dag(spec, seed, &error);
  if (!dag) {
    std::fprintf(stderr, "perfbench: cannot generate %s: %s\n", spec.c_str(),
                 error.c_str());
    std::exit(2);
  }
  span.set_work(dag->num_nodes());
  return std::move(*dag);
}

std::string encode_dag(const ComputeDag& dag) {
  Scope span(g_tracer, "graph.encode");
  std::string bytes = dag_to_binary(dag);
  span.set_work(static_cast<double>(bytes.size()));
  return bytes;
}

/// mbsp-dag v2 round trip: encode, decode, and compare canonical hashes.
ComputeDag round_trip(const ComputeDag& dag) {
  const std::string bytes = encode_dag(dag);
  std::optional<ComputeDag> back;
  std::string error;
  {
    Scope span(g_tracer, "graph.decode", static_cast<double>(bytes.size()));
    back = dag_from_binary(bytes, &error);
  }
  if (!back) {
    g_check.fail("v2 round trip of " + dag.name() + ": " + error);
    return dag;
  }
  Scope span(g_tracer, "graph.hash", 2.0 * static_cast<double>(bytes.size()));
  if (dag_canonical_hash(*back) != dag_canonical_hash(dag)) {
    g_check.fail("v2 round trip of " + dag.name() + " changed its hash");
  }
  return std::move(*back);
}

MbspInstance make_instance(ComputeDag dag, const std::string& machine_spec) {
  std::string error;
  auto machine = MachineRegistry::global().make_machine(
      machine_spec, min_memory_r0(dag), &error);
  if (!machine) {
    std::fprintf(stderr, "perfbench: machine %s: %s\n", machine_spec.c_str(),
                 error.c_str());
    std::exit(2);
  }
  return MbspInstance{std::move(dag), std::move(*machine)};
}

/// Scheduler seeds are fixed constants: --seed varies the inputs only,
/// and LNS run time depends strongly on the search seed's trajectory.
SchedulerOptions capped(long max_iterations, std::uint64_t seed = 42) {
  SchedulerOptions options;
  options.budget_ms = 0;  // no wall-clock deadline: the cap decides
  options.max_iterations = max_iterations;
  options.seed = seed;
  return options;
}

ScheduleResult run_scheduler(const char* span_name, const std::string& name,
                             const MbspInstance& inst,
                             const SchedulerOptions& options) {
  Scope span(g_tracer, span_name, inst.dag.num_nodes());
  return SchedulerRegistry::global().at(name).run(inst, options);
}

/// Bspg + clairvoyant cost, the paper's two-stage baseline.
double baseline_cost(const MbspInstance& inst) {
  return SchedulerRegistry::global()
      .at("bspg+clairvoyant")
      .run(inst, capped(0))
      .cost;
}

// Σ cell wall ÷ (threads × grid wall) over every run_grid call.
struct RunnerLoad {
  std::mutex mutex;
  double cell_ms = 0;
  double capacity_ms = 0;
} g_runner_load;

std::vector<BatchCell> run_grid(const BatchRunner& runner,
                                const std::vector<MbspInstance>& instances,
                                const std::vector<std::string>& schedulers) {
  const double cells =
      static_cast<double>(instances.size() * schedulers.size());
  const auto start = Clock::now();
  std::vector<BatchCell> out;
  {
    Scope span(g_tracer, "runner.run_grid", cells);
    out = runner.run_grid(instances, schedulers);
  }
  const double wall = elapsed_ms(start);
  if (g_tracer.enabled()) {
    double sum = 0;
    for (const BatchCell& c : out) sum += c.result.wall_ms;
    const std::lock_guard<std::mutex> lock(g_runner_load.mutex);
    g_runner_load.cell_ms += sum;
    g_runner_load.capacity_ms +=
        wall * static_cast<double>(runner.options().threads);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Workloads.

struct RunStats {
  std::vector<double> setup_s;
  std::vector<double> pass_s;
  std::vector<double> op_ms;  ///< the workload's unit operation
  double cost_ratio = 0;      ///< fixed input set, so bitwise repeatable
  long attempted = 0;
  long failed = 0;
};

/// One instance of the layer probe, with the machine spec it was built
/// from (daemon requests carry the spec, not the machine).
struct ProbeInstance {
  MbspInstance inst;
  std::string machine_spec;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* op_name() const = 0;
  virtual int setup_reps() const = 0;
  /// Builds inputs and services from the seed, replacing any earlier ones.
  virtual void setup() = 0;
  virtual void begin_measure() {}
  /// One pass of the fixed operation set; appends unit-op latencies.
  virtual void pass(RunStats& stats) = 0;
  virtual void end_measure(RunStats&) {}
  /// Post-run checks and the cost ratio (outside every timed region).
  virtual void finish(RunStats& stats) = 0;
  /// The workload's own instances, for the per-layer probe.
  virtual std::vector<ProbeInstance> probe_set() const = 0;
  /// Probe iteration cap, sized so each probe solve stays short.
  virtual long probe_iterations() const = 0;
};

// --- paper-batch -----------------------------------------------------------
// The paper's Tables 1-2 through BatchRunner::run_grid (2 threads,
// validation on). Many small, shallow DAGs: LNS time goes to per-move
// constant costs, and cell scheduling in the runner matters. No daemon,
// no file I/O.
class PaperBatch final : public Workload {
 public:
  PaperBatch(std::uint64_t seed, bool smoke) : seed_(seed), smoke_(smoke) {}

  const char* op_name() const override { return "table-1 holistic cell"; }
  int setup_reps() const override { return smoke_ ? 2 : 101; }

  void setup() override {
    tiny_.clear();
    small_.clear();
    std::vector<ComputeDag> tiny, small;
    {
      Scope span(g_tracer, "workload.gen");
      tiny = tiny_dataset(seed_);
      small = small_dataset(seed_);
      double nodes = 0;
      for (const auto& d : tiny) nodes += d.num_nodes();
      for (const auto& d : small) nodes += d.num_nodes();
      span.set_work(nodes);
    }
    if (smoke_) {
      tiny.resize(3);
      small.resize(2);
    }
    // Table 1: P=4, r = 3 r0, g=1, L=10; Table 2: r = 5 r0.
    for (auto& d : tiny) {
      if (d.num_nodes() >= 120) {
        // holistic would switch to divide-and-conquer (wall-clock ILP).
        g_check.fail("tiny instance " + d.name() + " has >= 120 nodes");
      }
      tiny_.push_back(make_instance(round_trip(d), "uniform:P=4,rf=3"));
    }
    for (auto& d : small) {
      small_.push_back(make_instance(round_trip(d), "uniform:P=4,rf=5"));
    }
  }

  void pass(RunStats& stats) override {
    BatchOptions options;
    options.threads = 2;
    options.validate = true;
    options.scheduler = capped(smoke_ ? 100 : kIterations);
    const BatchRunner runner(options);
    auto t1 = run_grid(runner, tiny_, {"holistic", "bspg+clairvoyant"});
    auto t2 = run_grid(runner, small_, {"lns", "bspg+clairvoyant"});
    for (const BatchCell& c : t1) {
      if (c.scheduler == "holistic") stats.op_ms.push_back(c.result.wall_ms);
    }
    t1.insert(t1.end(), std::make_move_iterator(t2.begin()),
              std::make_move_iterator(t2.end()));
    stats.attempted += static_cast<long>(t1.size());
    for (const BatchCell& c : t1) {
      // With validation on, an invalid schedule also lands here.
      if (!c.ok) {
        ++stats.failed;
        g_check.fail("cell " + c.instance + "/" + c.scheduler +
                     " failed: " + c.error);
      }
    }
    if (first_.empty()) {
      first_ = std::move(t1);
      return;
    }
    // Later passes repeat the same capped work: plans must repeat bitwise.
    for (std::size_t i = 0; i < t1.size(); ++i) {
      if (!t1[i].ok || !first_[i].ok) continue;
      if (t1[i].result.cost != first_[i].result.cost ||
          plan_bytes(t1[i].result.plan) != plan_bytes(first_[i].result.plan)) {
        g_check.fail("paper-batch cell " + t1[i].instance + "/" +
                     t1[i].scheduler + " is not deterministic across passes");
      }
    }
  }

  void finish(RunStats& stats) override {
    std::vector<const MbspInstance*> insts;
    for (const auto& i : tiny_) insts.push_back(&i);
    for (const auto& i : small_) insts.push_back(&i);
    std::vector<double> ratios;
    for (std::size_t k = 0; k + 1 < first_.size(); k += 2) {
      const BatchCell& improving = first_[k];
      const BatchCell& baseline = first_[k + 1];
      const MbspInstance& inst = *insts[k / 2];
      for (const BatchCell* c : {&improving, &baseline}) {
        if (!c->ok) continue;  // already failed the run in pass()
        check_schedule(inst, c->result.schedule, c->result.cost,
                       "cell " + c->instance + "/" + c->scheduler);
      }
      if (improving.ok && baseline.ok) {
        ratios.push_back(improving.result.cost / baseline.result.cost);
      }
    }
    stats.cost_ratio = geomean(ratios);
  }

  std::vector<ProbeInstance> probe_set() const override {
    std::vector<ProbeInstance> out;
    for (const auto& i : tiny_) out.push_back({i, "uniform:P=4,rf=3"});
    for (const auto& i : small_) out.push_back({i, "uniform:P=4,rf=5"});
    return out;
  }
  long probe_iterations() const override { return 500; }

 private:
  static constexpr long kIterations = 1000;
  const std::uint64_t seed_;
  const bool smoke_;
  std::vector<MbspInstance> tiny_, small_;
  std::vector<BatchCell> first_;
};

/// Forwards a streamed DAG to `inner`, counting its nodes.
struct NodeCounter final : DagSink {
  explicit NodeCounter(DagSink& sink) : inner(sink) {}
  void begin(const std::string& name, std::uint64_t num_nodes) override {
    nodes = static_cast<double>(num_nodes);
    inner.begin(name, num_nodes);
  }
  void add_node(double omega, double mu) override { inner.add_node(omega, mu); }
  void begin_edges(std::uint64_t num_edges) override {
    inner.begin_edges(num_edges);
  }
  void add_edge(NodeId u, NodeId v) override { inner.add_edge(u, v); }
  DagSink& inner;
  double nodes = 0;
};

// --- large-solve -----------------------------------------------------------
// Deep DAGs where every LNS move re-completes a dirty suffix that grows
// with n: lns on a 10k-node stencil, refined in iteration-capped slices
// (each slice warm-starts from the previous incumbent, like the daemon's
// near-miss path), and the sharded pipeline on a 16k-node wavefront.
// Inputs are streamed to mbsp-dag v2 files and read back during set-up.
class LargeSolve final : public Workload {
 public:
  LargeSolve(std::uint64_t seed, bool smoke, std::string out_dir)
      : seed_(seed), smoke_(smoke), out_dir_(std::move(out_dir)) {}

  const char* op_name() const override { return "stencil lns slice"; }
  int setup_reps() const override { return smoke_ ? 2 : 31; }

  void setup() override {
    const std::string specs[2] = {
        smoke_ ? "stencil2d:nx=8,ny=4,steps=8" : "stencil2d:nx=32,ny=8,steps=40",
        smoke_ ? "wavefront:nx=16,ny=16" : "wavefront:nx=128,ny=128"};
    for (int k = 0; k < 2; ++k) {
      const std::string path = out_dir_ + "/large-" + std::to_string(k) +
                               "-" + std::to_string(getpid()) + ".dag";
      std::uint64_t written_hash = 0;
      {
        Scope span(g_tracer, "workload.gen");
        DagStreamWriter writer(path);
        NodeCounter counter(writer);
        std::string error;
        const bool ok = WorkloadRegistry::global().make_dag_stream(
                            specs[k], seed_, counter, &error) &&
                        writer.finish(&written_hash);
        span.set_work(counter.nodes);
        if (!ok) {
          std::fprintf(stderr, "perfbench: cannot write %s: %s %s\n",
                       path.c_str(), error.c_str(), writer.error().c_str());
          std::exit(2);
        }
      }
      const double bytes =
          static_cast<double>(std::filesystem::file_size(path));
      std::optional<ComputeDag> dag;
      std::string error;
      {
        Scope span(g_tracer, "graph.decode", bytes);
        dag = read_dag_file(path, &error);
      }
      std::filesystem::remove(path);
      if (!dag) {
        std::fprintf(stderr, "perfbench: cannot read %s: %s\n", path.c_str(),
                     error.c_str());
        std::exit(2);
      }
      {
        Scope span(g_tracer, "graph.hash", bytes);
        if (dag_canonical_hash(*dag) != written_hash) {
          g_check.fail("v2 file round trip changed the hash of " + specs[k]);
        }
      }
      inst_[k] = make_instance(std::move(*dag), "uniform:P=8");
    }
  }

  void pass(RunStats& stats) override {
    const MbspInstance& stencil = inst_[0];
    const MbspInstance& wave = inst_[1];
    PassResult r;
    r.base_stencil = run_scheduler("twostage.baseline", "bspg+clairvoyant",
                                   stencil, capped(0));
    r.base_wave = run_scheduler("twostage.baseline", "bspg+clairvoyant", wave,
                                capped(0));
    ComputePlan incumbent = r.base_stencil.plan;
    const int slices = smoke_ ? 3 : kSlices;
    for (int s = 0; s < slices; ++s) {
      SchedulerOptions options = capped(smoke_ ? 5 : kSliceIterations, s);
      options.warm_start_plan = &incumbent;
      const auto start = Clock::now();
      r.stencil = run_scheduler("holistic.lns", "lns", stencil, options);
      stats.op_ms.push_back(elapsed_ms(start));
      incumbent = r.stencil.plan;
    }
    SchedulerOptions shard = capped(smoke_ ? 20 : kShardIterations);
    shard.shards = 4;
    shard.shard_threads = 2;
    r.sharded = run_scheduler("holistic.shard", "sharded", wave, shard);
    for (const auto& [inst, res] :
         {std::pair{&stencil, &r.stencil}, std::pair{&wave, &r.sharded}}) {
      Scope span(g_tracer, "model.validate", inst->dag.num_nodes());
      if (!validate(*inst, res->schedule)) {
        g_check.fail("large-solve " + res->scheduler + " schedule invalid");
      }
    }
    stats.attempted += 3 + slices;
    if (!first_) {
      first_ = std::move(r);
    } else if (r.stencil.cost != first_->stencil.cost ||
               r.sharded.cost != first_->sharded.cost) {
      g_check.fail("large-solve is not deterministic across passes");
    }
  }

  void finish(RunStats& stats) override {
    const PassResult& r = *first_;
    check_schedule(inst_[0], r.base_stencil.schedule, r.base_stencil.cost,
                   "stencil baseline");
    check_schedule(inst_[1], r.base_wave.schedule, r.base_wave.cost,
                   "wavefront baseline");
    check_schedule(inst_[0], r.stencil.schedule, r.stencil.cost,
                   "stencil lns");
    check_schedule(inst_[1], r.sharded.schedule, r.sharded.cost,
                   "wavefront sharded");
    stats.cost_ratio = geomean({r.stencil.cost / r.base_stencil.cost,
                                r.sharded.cost / r.base_wave.cost});
  }

  std::vector<ProbeInstance> probe_set() const override {
    return {{inst_[0], "uniform:P=8"}, {inst_[1], "uniform:P=8"}};
  }
  long probe_iterations() const override { return smoke_ ? 5 : 20; }

 private:
  static constexpr int kSlices = 40;
  static constexpr long kSliceIterations = 5;
  static constexpr long kShardIterations = 100;
  struct PassResult {
    ScheduleResult base_stencil, base_wave, stencil, sharded;
  };
  const std::uint64_t seed_;
  const bool smoke_;
  const std::string out_dir_;
  MbspInstance inst_[2];
  std::optional<PassResult> first_;
};

// --- serve -----------------------------------------------------------------
// An in-process mbspd on a private Unix socket, driven by two closed-loop
// clients. Client A (the pass) sends distinct SCHEDULE misses (seed-varied
// DAGs of one family and size) and then chained REPAIRs along one
// trace-churn replay; client B concurrently replays exact hits on DAGs of
// a few thousand nodes primed during set-up, re-sending each DAG inline.
class Serve final : public Workload {
 public:
  Serve(std::uint64_t seed, bool smoke, std::string out_dir)
      : seed_(seed), smoke_(smoke), out_dir_(std::move(out_dir)) {}
  ~Serve() override { stop_server(); }

  const char* op_name() const override { return "SCHEDULE miss"; }
  int setup_reps() const override { return smoke_ ? 1 : 5; }

  void setup() override {
    stop_server();
    misses_.clear();
    hits_.clear();
    const int pool = smoke_ ? 40 : kMissPool;
    for (int i = 0; i < pool; ++i) {
      ScheduleRequest request = base_request(kMissIterations);
      request.seed = static_cast<std::uint64_t>(i);  // one seed per request
      request.dag_bytes = encode_dag(
          make_dag(kMissFamily, mix_seed(seed_, 1000 + i)));
      misses_.push_back(std::move(request));
    }
    for (int i = 0; i < kHitDags; ++i) {
      ScheduleRequest request = base_request(kHitIterations);
      request.dag_bytes = encode_dag(make_dag(
          smoke_ ? kMissFamily : kHitFamily, mix_seed(seed_, 2000 + i)));
      hits_.push_back({std::move(request), ""});
    }
    {
      Scope span(g_tracer, "workload.gen");
      std::string error;
      auto trace = make_trace(
          "trace-churn:base=stencil2d,batch=1,events=" +
              std::to_string(smoke_ ? 8 : kTraceEvents),
          seed_, kMachine, &error);
      if (!trace) {
        std::fprintf(stderr, "perfbench: trace: %s\n", error.c_str());
        std::exit(2);
      }
      trace_ = std::move(*trace);
      span.set_work(trace_.base.dag.num_nodes());
    }

    MbspdOptions options;
    options.socket_path =
        out_dir_ + "/serve-" + std::to_string(getpid()) + ".sock";
    options.solver_threads = 2;
    options.cache_capacity = 4096;
    {
      Scope span(g_tracer, "daemon.start");
      server_ = std::make_unique<MbspdServer>(options);
      std::string error;
      if (!server_->start(&error)) {
        std::fprintf(stderr, "perfbench: mbspd: %s\n", error.c_str());
        std::exit(2);
      }
    }
    socket_ = options.socket_path;
    MbspClient client;
    connect(client);
    // Prime: cold solves of every hit DAG and of the trace's base.
    for (Hit& h : hits_) {
      MbspClient::Outcome out;
      if (!request(client, h.request, &out, CacheStatus::kCold, "prime")) {
        continue;
      }
      h.cold_plan = plan_bytes(out.final.plan);
    }
    ScheduleRequest base = base_request(kRepairIterations);
    base.dag_bytes = encode_dag(trace_.base.dag);
    MbspClient::Outcome out;
    request(client, base, &out, CacheStatus::kCold, "prime trace base");
    repair_base_hash_ = out.final.dag_hash;
    next_miss_ = 0;
    next_event_ = 0;
    miss_results_.clear();
    repair_results_.clear();
  }

  void begin_measure() override {
    solver_calls_before_ = server_->stats().solver_calls;
    stop_b_.store(false);
    hit_thread_ = std::thread([this] { hit_loop(); });
  }

  void pass(RunStats& stats) override {
    MbspClient client;
    connect(client);
    for (int i = 0; i < kMissesPerPass && next_miss_ < misses_.size(); ++i) {
      const ScheduleRequest& req = misses_[next_miss_++];
      MbspClient::Outcome out;
      const auto start = Clock::now();
      const bool ok = request(client, req, &out, CacheStatus::kCold, "miss");
      stats.op_ms.push_back(elapsed_ms(start));
      ++stats.attempted;
      if (!ok) {
        ++stats.failed;
        continue;
      }
      miss_results_.push_back({out.final.cost, std::move(out.final.plan)});
    }
    for (int i = 0;
         i < kRepairsPerPass && next_event_ < trace_.events.size(); ++i) {
      RepairRequest req;
      req.dag_hash = repair_base_hash_;  // pinned: resident in the store
      req.machine_spec = kMachine;
      req.scheduler = "lns";
      req.budget_ms = 0;
      req.max_iterations = kRepairIterations;
      req.delta = trace_.events[next_event_++].delta;
      MbspClient::Outcome out;
      std::string error;
      const auto start = Clock::now();
      bool ok;
      {
        Scope span(g_tracer, "daemon.repair", 0, next_event_);
        ok = client.repair(req, &out, &error) && out.ok;
      }
      repair_ms_.push_back(elapsed_ms(start));
      ++stats.attempted;
      // kExact: the delta reproduced a scenario already repaired (e.g. a
      // drift event that rewrites a weight to its current value).
      if (out.final.cache == CacheStatus::kExact) ++repair_exact_;
      if (!ok || (out.final.cache != CacheStatus::kRepaired &&
                  out.final.cache != CacheStatus::kExact)) {
        ++stats.failed;
        g_check.fail("repair " + std::to_string(next_event_) + ": " +
                     (out.ok ? std::string("cache=") +
                                   cache_status_name(out.final.cache)
                             : error + out.error.message));
        next_event_ = trace_.events.size();  // the chain is broken
        continue;
      }
      repair_base_hash_ = out.final.dag_hash;
      repair_results_.push_back({out.final.cost, std::move(out.final.plan)});
    }
    if (next_miss_ >= misses_.size()) exhausted_ = true;
  }

  void end_measure(RunStats& stats) override {
    stop_b_.store(true);
    hit_thread_.join();
    stats.attempted += hits_sent_;
    stats.failed += hits_failed_;
    const DaemonStats s = server_->stats();
    std::printf("  hit stream (client B): n=%ld p50=%.4f ms p99=%.4f ms; "
                "exact hits %ld / %ld\n",
                hits_sent_, quantile(hit_ms_, 0.5), quantile(hit_ms_, 0.99),
                hits_exact_, hits_sent_);
    std::printf("  repairs (client A): n=%zu p50=%.4f ms p90=%.4f ms\n",
                repair_ms_.size(), quantile(repair_ms_, 0.5),
                quantile(repair_ms_, 0.9));
    // Every hit is answered from the cache: an exact status on every reply,
    // and no solver call beyond client A's misses and repairs.
    if (hits_exact_ != hits_sent_) {
      g_check.fail("exact_hit_frac != 1 in the hit stream");
    }
    const auto solves = static_cast<long>(s.solver_calls - solver_calls_before_);
    const long expected = static_cast<long>(miss_results_.size() +
                                            repair_results_.size()) -
                          repair_exact_;
    if (solves != expected) {
      g_check.fail("hit stream caused solver calls: " +
                   std::to_string(solves) + " solves for " +
                   std::to_string(expected) + " misses and repairs");
    }
    if (exhausted_) {
      std::printf("  note: miss pool exhausted; raise kMissPool\n");
    }
  }

  void finish(RunStats& stats) override {
    std::vector<double> ratios;
    for (std::size_t i = 0; i < miss_results_.size(); ++i) {
      std::string error;
      auto dag = dag_from_binary(misses_[i].dag_bytes, &error);
      const MbspInstance inst = make_instance(std::move(*dag), kMachine);
      const double cost = check_plan(inst, miss_results_[i].plan,
                                     miss_results_[i].cost,
                                     "miss " + std::to_string(i));
      if (i < kRatioMisses) ratios.push_back(cost / baseline_cost(inst));
    }
    if (miss_results_.size() < kRatioMisses && !smoke_) {
      g_check.fail("fewer misses served than the cost-ratio set");
    }
    stats.cost_ratio = geomean(ratios);
    // Replay the trace exactly as the daemon builds each repaired scenario:
    // machine from the spec at the base dag's r0, then the delta.
    ComputeDag base = trace_.base.dag;
    for (std::size_t j = 0; j < repair_results_.size(); ++j) {
      MbspInstance mutated = make_instance(base, kMachine);
      std::string error;
      if (!apply_instance_delta(mutated, trace_.events[j].delta, nullptr,
                                &error)) {
        g_check.fail("trace event " + std::to_string(j) + ": " + error);
        break;
      }
      check_plan(mutated, repair_results_[j].plan, repair_results_[j].cost,
                 "repair " + std::to_string(j));
      base = mutated.dag;
    }
    stop_server();
  }

  std::vector<ProbeInstance> probe_set() const override {
    std::vector<ProbeInstance> out;
    auto add = [&](const ScheduleRequest& request) {
      auto dag = dag_from_binary(request.dag_bytes);
      out.push_back({make_instance(std::move(*dag), kMachine), kMachine});
    };
    for (std::size_t i = 0; i < 2; ++i) {
      add(misses_[i]);
      add(hits_[i].request);
    }
    out.push_back({trace_.base, kMachine});
    return out;
  }
  long probe_iterations() const override { return 200; }

 private:
  static constexpr const char* kMachine = "uniform:P=4";
  static constexpr const char* kMissFamily = "random-layered:nodes=300,width=12";
  static constexpr const char* kHitFamily = "random-layered:nodes=2500,width=25";
  static constexpr int kMissPool = 1500;
  static constexpr int kHitDags = 4;
  static constexpr int kMissesPerPass = 8;
  static constexpr int kRepairsPerPass = 2;
  static constexpr int kTraceEvents = 400;
  static constexpr long kMissIterations = 300;
  static constexpr long kHitIterations = 50;
  static constexpr long kRepairIterations = 100;
  static constexpr std::size_t kRatioMisses = 64;

  struct Hit {
    ScheduleRequest request;
    std::string cold_plan;
  };
  struct Served {
    double cost = 0;
    ComputePlan plan;
  };

  ScheduleRequest base_request(long max_iterations) const {
    ScheduleRequest request;
    request.machine_spec = kMachine;
    request.scheduler = "lns";
    request.budget_ms = 0;
    request.max_iterations = max_iterations;
    return request;
  }

  void connect(MbspClient& client) const {
    std::string error;
    if (!client.connect(socket_, &error)) {
      std::fprintf(stderr, "perfbench: connect: %s\n", error.c_str());
      std::exit(2);
    }
  }

  /// One SCHEDULE round trip; false (and a recorded failure) on a
  /// transport error, a typed error frame or an unexpected cache status.
  static bool request(MbspClient& client, const ScheduleRequest& req,
                      MbspClient::Outcome* out, CacheStatus expect,
                      const char* what) {
    std::string error;
    bool ok;
    {
      Scope span(g_tracer, expect == CacheStatus::kExact ? "daemon.hit"
                                                         : "daemon.schedule",
                 static_cast<double>(req.dag_bytes.size()), req.seed);
      ok = client.run(req, out, &error);
    }
    if (!ok || !out->ok) {
      g_check.fail(std::string(what) + ": " +
                   (ok ? out->error.message : error));
      return false;
    }
    if (out->final.cache != expect) {
      g_check.fail(std::string(what) + ": cache=" +
                   cache_status_name(out->final.cache) + ", expected " +
                   cache_status_name(expect));
      return false;
    }
    return true;
  }

  void hit_loop() {
    MbspClient client;
    connect(client);
    for (std::size_t i = 0; !stop_b_.load(); ++i) {
      const Hit& h = hits_[i % hits_.size()];
      MbspClient::Outcome out;
      const auto start = Clock::now();
      const bool ok =
          request(client, h.request, &out, CacheStatus::kExact, "hit");
      hit_ms_.push_back(elapsed_ms(start));
      ++hits_sent_;
      if (!ok) {
        ++hits_failed_;
        continue;
      }
      ++hits_exact_;
      if (plan_bytes(out.final.plan) != h.cold_plan) {
        g_check.fail("hit plan differs from its key's cold plan");
      }
    }
  }

  void stop_server() {
    if (server_ != nullptr) {
      server_->stop();
      server_.reset();
    }
  }

  const std::uint64_t seed_;
  const bool smoke_;
  const std::string out_dir_;
  std::unique_ptr<MbspdServer> server_;
  std::string socket_;
  std::vector<ScheduleRequest> misses_;
  std::vector<Hit> hits_;
  RepairTrace trace_;
  std::uint64_t repair_base_hash_ = 0;
  std::size_t next_miss_ = 0;
  std::size_t next_event_ = 0;
  bool exhausted_ = false;
  std::vector<Served> miss_results_;
  std::vector<Served> repair_results_;
  std::vector<double> repair_ms_;
  long repair_exact_ = 0;
  std::uint64_t solver_calls_before_ = 0;
  // Client B (its thread owns these until end_measure joins it).
  std::thread hit_thread_;
  std::atomic<bool> stop_b_{false};
  std::vector<double> hit_ms_;
  long hits_sent_ = 0;
  long hits_failed_ = 0;
  long hits_exact_ = 0;
};

// ---------------------------------------------------------------------------
// Layer probe (traced run only): calls every layer's public entry points on
// the workload's own instances, each call inside a span.

struct ProbeCounters {
  double move_vs_eval = 0;
  double accept_frac = 0;
  double exact_hit_frac = 0;
  double solver_calls = 0;
  double overhead_ms = 0;
};

InstanceDelta drift_delta(const MbspInstance& inst) {
  InstanceDelta delta;
  const NodeId n = inst.dag.num_nodes();
  for (NodeId v : {n / 3, n / 2, (2 * n) / 3}) {
    delta.set_node_weight(v, inst.dag.omega(v) * 2 + 1, inst.dag.mu(v));
  }
  return delta;
}

ProbeCounters probe_layers(const std::vector<ProbeInstance>& set,
                           long iterations, const std::string& out_dir) {
  ProbeCounters counters;
  double total_bytes = 0;
  std::vector<std::string> bytes;
  for (const auto& p : set) {
    bytes.push_back(dag_to_binary(p.inst.dag));
    total_bytes += static_cast<double>(bytes.back().size());
  }
  // Repeat the cheap byte-level calls until ~8 MB passed through each.
  const int reps = std::max(1, static_cast<int>(8e6 / total_bytes));
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < set.size(); ++i) {
      encode_dag(set[i].inst.dag);
      Scope span(g_tracer, "graph.decode", static_cast<double>(bytes[i].size()));
      if (!dag_from_binary(bytes[i])) g_check.fail("probe decode failed");
    }
    for (std::size_t i = 0; i < set.size(); ++i) {
      Scope span(g_tracer, "graph.hash", static_cast<double>(bytes[i].size()));
      dag_canonical_hash(set[i].inst.dag);
    }
  }

  LnsOptions lns;
  lns.budget_ms = 0;
  lns.max_iterations = iterations;
  std::vector<double> move_vs_eval;
  long proposed = 0, accepted = 0;
  std::vector<ComputePlan> improved;
  for (const auto& p : set) {
    const MbspInstance& inst = p.inst;
    const double nodes = inst.dag.num_nodes();
    BspSchedule bsp;
    {
      Scope span(g_tracer, "bsp.stage1", nodes);
      GreedyBspScheduler greedy;
      bsp = greedy.schedule(inst.dag, inst.arch);
    }
    const ComputePlan plan =
        plan_from_bsp(inst.dag, bsp, inst.arch.num_processors);
    MbspSchedule schedule;
    {
      Scope span(g_tracer, "twostage.complete", nodes);
      schedule = complete_memory(inst, plan, PolicyKind::kClairvoyant);
    }
    {
      Scope span(g_tracer, "model.validate", nodes);
      if (!validate(inst, schedule)) g_check.fail("probe: completion invalid");
    }
    auto start = Clock::now();
    {
      Scope span(g_tracer, "holistic.eval", nodes);
      evaluate_plan(inst, plan, lns);
    }
    const double eval_ms = elapsed_ms(start);
    start = Clock::now();
    LnsResult result;
    {
      Scope span(g_tracer, "holistic.improve");
      result = improve_plan(inst, plan, lns);
      span.set_work(static_cast<double>(result.iterations));
    }
    const double improve_ms = elapsed_ms(start);
    if (result.iterations > 0) {
      move_vs_eval.push_back((improve_ms - eval_ms) /
                             static_cast<double>(result.iterations) / eval_ms);
    }
    proposed += result.iterations;
    accepted += result.accepted;
    check_schedule(inst, result.schedule, result.cost, "probe lns");
    improved.push_back(result.plan);
  }
  counters.move_vs_eval =
      std::accumulate(move_vs_eval.begin(), move_vs_eval.end(), 0.0) /
      static_cast<double>(std::max<std::size_t>(1, move_vs_eval.size()));
  counters.accept_frac =
      static_cast<double>(accepted) / static_cast<double>(std::max(1L, proposed));

  // Sharded pipeline on the largest instance.
  const auto largest = std::max_element(
      set.begin(), set.end(), [](const auto& a, const auto& b) {
        return a.inst.dag.num_nodes() < b.inst.dag.num_nodes();
      });
  {
    ShardOptions shard;
    shard.num_shards = 4;
    shard.lns = lns;
    shard.polish_max_iterations = iterations;
    shard.num_threads = 2;
    ShardResult result;
    {
      Scope span(g_tracer, "holistic.shard", largest->inst.dag.num_nodes());
      result = shard_schedule(largest->inst, shard);
    }
    check_schedule(largest->inst, result.schedule, result.cost, "probe shard");
  }

  // Repair each instance's improved plan along a weight-drift delta.
  std::vector<InstanceDelta> deltas;
  for (std::size_t i = 0; i < set.size(); ++i) {
    deltas.push_back(drift_delta(set[i].inst));
    MbspInstance mutated = set[i].inst;
    apply_instance_delta(mutated, deltas.back());
    RepairOptions repair;
    repair.lns = lns;
    std::optional<RepairResult> result;
    std::string error;
    {
      Scope span(g_tracer, "holistic.repair", mutated.dag.num_nodes());
      result = repair_plan(mutated, improved[i], deltas.back(), repair, &error);
    }
    if (!result) {
      g_check.fail("probe repair: " + error);
      continue;
    }
    check_plan(mutated, result->plan, result->cost, "probe repair");
  }

  // Runner over the probe set.
  {
    BatchOptions options;
    options.threads = 2;
    options.scheduler = capped(iterations);
    std::vector<MbspInstance> insts;
    for (const auto& p : set) insts.push_back(p.inst);
    for (const BatchCell& c :
         run_grid(BatchRunner(options), insts, {"lns", "bspg+clairvoyant"})) {
      if (!c.ok) g_check.fail("probe cell " + c.instance + ": " + c.error);
    }
  }

  // Daemon: wire codec, cache lookup, and one in-process daemon session.
  std::vector<ScheduleRequest> requests;
  for (std::size_t i = 0; i < set.size(); ++i) {
    ScheduleRequest r;
    r.dag_bytes = bytes[i];
    r.machine_spec = set[i].machine_spec;
    r.scheduler = "lns";
    r.budget_ms = 0;
    r.max_iterations = iterations;
    requests.push_back(std::move(r));
  }
  MbspdOptions options;
  options.socket_path = out_dir + "/probe-" + std::to_string(getpid()) + ".sock";
  options.solver_threads = 2;
  MbspdServer server(options);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "perfbench: probe mbspd: %s\n", error.c_str());
    std::exit(2);
  }
  MbspClient client;
  if (!client.connect(options.socket_path, &error)) {
    std::fprintf(stderr, "perfbench: probe connect: %s\n", error.c_str());
    std::exit(2);
  }
  std::vector<FinalResult> finals;
  for (const ScheduleRequest& r : requests) {
    MbspClient::Outcome out;
    Scope span(g_tracer, "daemon.schedule", static_cast<double>(r.dag_bytes.size()));
    if (!client.run(r, &out, &error) || !out.ok) {
      g_check.fail("probe miss: " + error + out.error.message);
      finals.emplace_back();
      continue;
    }
    finals.push_back(out.final);
  }
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < set.size(); ++i) {
      Scope span(g_tracer, "daemon.codec");
      const std::string payload = encode_schedule_request(requests[i]);
      const std::string final_bytes = encode_final_result(finals[i]);
      ScheduleRequest decoded;
      FinalResult decoded_final;
      if (!decode_schedule_request(payload, &decoded, &error) ||
          !decode_final_result(final_bytes, &decoded_final, &error)) {
        g_check.fail("probe codec: " + error);
      }
      // Each byte is encoded once and decoded once.
      span.set_work(2.0 *
                    static_cast<double>(payload.size() + final_bytes.size()));
    }
  }
  // The in-process cost of a hit: the same layer calls the daemon makes.
  ScheduleCache cache(64);
  std::vector<ScheduleCacheKey> keys;
  for (std::size_t i = 0; i < set.size(); ++i) {
    SchedulerOptions opts = capped(iterations);
    keys.push_back(make_cache_key(set[i].inst, "lns", opts));
    ScheduleCacheEntry entry;
    entry.plan = finals[i].plan;
    entry.cost = finals[i].cost;
    entry.max_iterations = iterations;
    cache.insert(keys.back(), entry);
  }
  {
    const int lookups = 20000;
    Scope span(g_tracer, "daemon.lookup", lookups);
    ScheduleCacheEntry out;
    for (int k = 0; k < lookups; ++k) {
      cache.lookup(keys[k % keys.size()], 0, iterations, &out);
    }
  }
  double in_process_ms = 0;
  for (std::size_t i = 0; i < set.size(); ++i) {
    const auto start = Clock::now();
    ScheduleRequest decoded;
    decode_schedule_request(encode_schedule_request(requests[i]), &decoded,
                            &error);
    auto dag = dag_from_bytes(decoded.dag_bytes);
    dag_canonical_hash(*dag);
    ScheduleCacheEntry out;
    cache.lookup(keys[i], 0, iterations, &out);
    FinalResult fin = finals[i];
    fin.plan = out.plan;
    encode_final_result(fin);
    in_process_ms += elapsed_ms(start);
  }
  const DaemonStats before = server.stats();
  double hit_ms = 0;
  const int hit_rounds = 4;
  for (int round = 0; round < hit_rounds; ++round) {
    for (std::size_t i = 0; i < set.size(); ++i) {
      MbspClient::Outcome out;
      const auto start = Clock::now();
      {
        Scope span(g_tracer, "daemon.hit",
                   static_cast<double>(requests[i].dag_bytes.size()));
        if (!client.run(requests[i], &out, &error) || !out.ok) {
          g_check.fail("probe hit: " + error + out.error.message);
          continue;
        }
      }
      hit_ms += elapsed_ms(start);
      if (out.final.cache != CacheStatus::kExact ||
          plan_bytes(out.final.plan) != plan_bytes(finals[i].plan)) {
        g_check.fail("probe hit is not the cold plan");
      }
    }
  }
  const DaemonStats after = server.stats();
  const double hits = static_cast<double>(hit_rounds * set.size());
  counters.exact_hit_frac =
      static_cast<double>(after.exact_hits - before.exact_hits) /
      static_cast<double>(after.requests - before.requests);
  counters.overhead_ms =
      hit_ms / hits - in_process_ms / static_cast<double>(set.size());
  // REPAIR of every probe instance along its drift delta.
  for (std::size_t i = 0; i < set.size(); ++i) {
    RepairRequest r;
    r.dag_bytes = bytes[i];
    r.machine_spec = set[i].machine_spec;
    r.scheduler = "lns";
    r.budget_ms = 0;
    r.max_iterations = iterations;
    r.delta = deltas[i];
    MbspClient::Outcome out;
    {
      Scope span(g_tracer, "daemon.repair");
      if (!client.repair(r, &out, &error) || !out.ok) {
        g_check.fail("probe repair request: " + error + out.error.message);
        continue;
      }
    }
    MbspInstance mutated = make_instance(set[i].inst.dag, set[i].machine_spec);
    apply_instance_delta(mutated, deltas[i]);
    check_plan(mutated, out.final.plan, out.final.cost, "probe daemon repair");
  }
  counters.solver_calls = static_cast<double>(server.stats().solver_calls);
  client.close();
  server.stop();
  return counters;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

void print_result(const std::vector<Metric>& metrics, long attempted,
                  long failed) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              g_check.ok() ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::string sample_note(std::size_t n) {
  return "(n=" + std::to_string(n) + ")";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool corrupt_plan = false;
  std::string out_dir = ".bench_build/perfbench-run";
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper-batch|large-solve|serve [--seed N] [--seconds S] "
               "[--trace 0|1] [--smoke] [--corrupt-plan] [--out-dir DIR]\n",
               message);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--corrupt-plan") {
      args.corrupt_plan = true;
    } else if (flag == "--out-dir") {
      args.out_dir = value();
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  return args;
}

std::unique_ptr<Workload> make_workload(const Args& args) {
  if (args.workload == "paper-batch") {
    return std::make_unique<PaperBatch>(args.seed, args.smoke);
  }
  if (args.workload == "large-solve") {
    return std::make_unique<LargeSolve>(args.seed, args.smoke, args.out_dir);
  }
  if (args.workload == "serve") {
    return std::make_unique<Serve>(args.seed, args.smoke, args.out_dir);
  }
  usage(("unknown workload '" + args.workload + "'").c_str());
}

double mb_per_s(const SpanTotals& t) {
  return t.total_ms > 0 ? t.work / 1e6 / (t.total_ms / 1e3) : 0;
}
double per_s(const SpanTotals& t) {
  return t.total_ms > 0 ? t.work / (t.total_ms / 1e3) : 0;
}
double mean_ms(const SpanTotals& t) {
  return t.count > 0 ? t.total_ms / static_cast<double>(t.count) : 0;
}

int run(const Args& args) {
  std::filesystem::create_directories(args.out_dir);
  if (args.corrupt_plan) g_check.arm_corruption();
  std::unique_ptr<Workload> workload = make_workload(args);
  RunStats stats;
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.smoke ? " (smoke)" : "");

  g_tracer.enable(args.trace);
  for (int k = 0; k < workload->setup_reps(); ++k) {
    const auto start = Clock::now();
    const Scope span(g_tracer, "setup");
    workload->setup();
    stats.setup_s.push_back(elapsed_ms(start) / 1e3);
  }

  // Passes: at least `seconds` of measurement, enough unit ops that the
  // p90 has ten samples beyond it, and at least three passes. The traced
  // run alternates untraced and traced passes.
  const std::size_t min_ops = args.smoke ? 4 : 100;
  const int min_passes = args.trace ? 4 : 3;
  std::vector<double> traced_pass_s;
  workload->begin_measure();
  const auto measure_start = Clock::now();
  for (int p = 0;; ++p) {
    const double elapsed_s = elapsed_ms(measure_start) / 1e3;
    if (p >= min_passes && elapsed_s >= args.seconds &&
        stats.op_ms.size() >= min_ops) {
      break;
    }
    if (elapsed_s > std::max(90.0, 4 * args.seconds)) break;  // 180 s limit
    const bool traced = args.trace && p % 2 == 1;
    g_tracer.enable(traced);
    const auto start = Clock::now();
    {
      const Scope span(g_tracer, "pass");
      workload->pass(stats);
    }
    (traced ? traced_pass_s : stats.pass_s)
        .push_back(elapsed_ms(start) / 1e3);
  }
  g_tracer.enable(args.trace);
  workload->end_measure(stats);

  ProbeCounters probe;
  if (args.trace) {
    const Scope span(g_tracer, "probe");
    probe = probe_layers(workload->probe_set(), workload->probe_iterations(),
                         args.out_dir);
  }
  g_tracer.enable(false);
  workload->finish(stats);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", quantile(stats.setup_s, 0.5), "s",
         "median of " + std::to_string(stats.setup_s.size()) + " set-ups"},
        {"batch_s", quantile(stats.pass_s, 0.5), "s",
         "median pass " + sample_note(stats.pass_s.size())},
        {"op_p50_ms", quantile(stats.op_ms, 0.5), "ms",
         std::string(workload->op_name()) + " " +
             sample_note(stats.op_ms.size())},
        {"op_p90_ms", quantile(stats.op_ms, 0.9), "ms",
         std::string(workload->op_name()) + " " +
             sample_note(stats.op_ms.size())},
        {"cost_ratio_geomean", stats.cost_ratio, "ratio",
         "improving / bspg+clairvoyant"},
        {"peak_rss_mb", peak_rss_mb(), "MB", ""},
    };
  } else {
    const auto totals = g_tracer.totals();
    auto t = [&](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? SpanTotals{} : it->second;
    };
    const double untraced = quantile(stats.pass_s, 0.5);
    metrics = {
        {"graph.decode_mb_s", mb_per_s(t("graph.decode")), "MB/s",
         "-> serve op_p50_ms; large-solve setup_s"},
        {"graph.hash_mb_s", mb_per_s(t("graph.hash")), "MB/s",
         "-> serve hit-stream p50/p99 (detail line)"},
        {"graph.encode_mb_s", mb_per_s(t("graph.encode")), "MB/s",
         "-> serve, large-solve setup_s"},
        {"workload.gen_nodes_s", per_s(t("workload.gen")), "nodes/s",
         "-> setup_s on all"},
        {"bsp.stage1_nodes_s", per_s(t("bsp.stage1")), "nodes/s",
         "-> large-solve batch_s; serve op_p50_ms"},
        {"twostage.complete_nodes_s", per_s(t("twostage.complete")),
         "nodes/s", "-> large-solve batch_s; serve op_p50_ms"},
        {"model.validate_nodes_s", per_s(t("model.validate")), "nodes/s",
         "-> paper-batch batch_s"},
        {"holistic.lns_iters_s", per_s(t("holistic.improve")), "1/s",
         "-> batch_s on paper-batch, large-solve; serve op_p50_ms"},
        {"holistic.eval_ms", mean_ms(t("holistic.eval")), "ms",
         "base of move_vs_eval"},
        {"holistic.move_vs_eval", probe.move_vs_eval, "ratio",
         "-> large-solve batch_s, op_p50_ms"},
        {"holistic.accept_frac", probe.accept_frac, "ratio",
         "-> cost_ratio_geomean"},
        {"holistic.shard_s", mean_ms(t("holistic.shard")) / 1e3, "s",
         "-> large-solve batch_s"},
        {"holistic.repair_ms", mean_ms(t("holistic.repair")), "ms",
         "-> serve batch_s (chained repairs)"},
        {"runner.busy_frac",
         g_runner_load.capacity_ms > 0
             ? g_runner_load.cell_ms / g_runner_load.capacity_ms
             : 0,
         "ratio", "-> paper-batch batch_s"},
        {"runner.cells_s", per_s(t("runner.run_grid")), "1/s",
         "-> paper-batch batch_s"},
        {"daemon.codec_mb_s", mb_per_s(t("daemon.codec")), "MB/s",
         "-> serve op_p50_ms"},
        {"daemon.lookup_us", t("daemon.lookup").total_ms * 1e3 /
                                 std::max(1.0, t("daemon.lookup").work),
         "us", "-> serve hit-stream p50/p99 (detail line)"},
        {"daemon.exact_hit_frac", probe.exact_hit_frac, "ratio",
         "-> serve hit-stream p99 (detail line)"},
        {"daemon.solver_calls", probe.solver_calls, "count",
         "-> serve op_p50_ms"},
        {"daemon.overhead_ms", probe.overhead_ms, "ms",
         "-> serve op_p50_ms (socket, framing, queue wait)"},
        {"trace.overhead_frac",
         untraced > 0 ? quantile(traced_pass_s, 0.5) / untraced - 1 : 0,
         "ratio", "traced vs untraced median pass"},
    };
    // The layer split of the traced passes: "pass" self time is what no
    // layer call covers (the benchmark's own work and client waits).
    for (const char* root : {"setup", "pass", "probe"}) {
      std::printf("  self time under '%s' spans:\n", root);
      for (const auto& [name, tot] : g_tracer.totals(root)) {
        std::printf("    %-20s n=%-7ld total=%10.2f ms self=%10.2f ms\n",
                    name.c_str(), tot.count, tot.total_ms, tot.self_ms);
      }
    }
    const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    if (g_tracer.write_json(path)) {
      std::printf("  %zu spans written to %s\n", g_tracer.size(),
                  path.c_str());
    }
  }
  if (!g_check.ok()) g_check.report();
  print_result(metrics, stats.attempted, stats.failed);
  return g_check.ok() && stats.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse_args(argc, argv));
}
