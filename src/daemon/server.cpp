#include "src/daemon/server.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <optional>
#include <utility>

#include "src/daemon/socket_io.hpp"
#include "src/graph/dag_io.hpp"
#include "src/model/instance.hpp"
#include "src/model/machine_registry.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#define MBSP_DAEMON_POSIX 1
#endif

namespace mbsp::daemon {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Effort max under the budget_ms = 0 == unlimited convention.
double max_budget_ms(double a, double b) {
  if (a == 0 || b == 0) return 0;
  return std::max(a, b);
}

/// The schedulers that honor SchedulerOptions::warm_start_plan, i.e. can
/// warm-start from a cached incumbent.
bool is_warm_startable(const std::string& scheduler) {
  return scheduler == "lns" || scheduler == "lns-portfolio";
}

/// Whether a pipeline stage ended the request.
bool failed(const ErrorFrame& stage) { return stage.code != WireError::kNone; }

bool is_protocol_error(WireError code) {
  switch (code) {
    case WireError::kBadMagic:
    case WireError::kBadFrameType:
    case WireError::kOversizedFrame:
    case WireError::kTruncatedFrame:
    case WireError::kBadRequest:
    case WireError::kBadVersion:
      return true;
    default:
      return false;
  }
}

}  // namespace

MbspdServer::MbspdServer(MbspdOptions options,
                         const SchedulerRegistry& registry)
    : options_(std::move(options)),
      registry_(registry),
      cache_(options_.cache_capacity) {}

MbspdServer::~MbspdServer() { stop(); }

std::shared_ptr<const ComputeDag> MbspdServer::find_dag(std::uint64_t hash) {
  const std::lock_guard<std::mutex> lock(dag_mutex_);
  for (std::size_t i = 0; i < dag_store_.size(); ++i) {
    if (dag_store_[i].first == hash) {
      auto dag = dag_store_[i].second;
      dag_store_.erase(dag_store_.begin() + static_cast<long>(i));
      dag_store_.insert(dag_store_.begin(), {hash, dag});
      return dag;
    }
  }
  return nullptr;
}

void MbspdServer::store_dag(std::uint64_t hash,
                            std::shared_ptr<const ComputeDag> dag) {
  const std::lock_guard<std::mutex> lock(dag_mutex_);
  for (std::size_t i = 0; i < dag_store_.size(); ++i) {
    if (dag_store_[i].first == hash) {
      dag_store_.erase(dag_store_.begin() + static_cast<long>(i));
      break;
    }
  }
  dag_store_.insert(dag_store_.begin(), {hash, std::move(dag)});
  if (dag_store_.size() > options_.dag_store_capacity) {
    dag_store_.resize(options_.dag_store_capacity);
  }
}

DaemonStats MbspdServer::stats() const {
  const ScheduleCacheStats cache = cache_.stats();
  DaemonStats out;
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    out.requests = requests_;
    out.solver_calls = solver_calls_;
    out.protocol_errors = protocol_errors_;
    out.repair_requests = repair_requests_;
    out.repair_hits = repair_hits_;
  }
  out.exact_hits = cache.exact_hits;
  out.warm_hits = cache.warm_hits;
  out.misses = cache.misses;
  out.insertions = cache.insertions;
  out.evictions = cache.evictions;
  out.cache_entries = cache_.size();
  out.cache_capacity = cache_.capacity();
  out.active_connections = active_connections_.load();
  return out;
}

#if defined(MBSP_DAEMON_POSIX)

bool MbspdServer::start(std::string* error) {
  if (running_.load()) return true;
  if (options_.socket_path.empty()) {
    if (error != nullptr) *error = "socket_path is required";
    return false;
  }
  if (::pipe(stop_pipe_) != 0) {
    if (error != nullptr) *error = "cannot create stop pipe";
    return false;
  }
  listen_fd_ = unix_listen(options_.socket_path, options_.backlog, error);
  if (listen_fd_ < 0) {
    ::close(stop_pipe_[0]);
    ::close(stop_pipe_[1]);
    stop_pipe_[0] = stop_pipe_[1] = -1;
    return false;
  }
  const std::size_t threads =
      options_.solver_threads != 0
          ? options_.solver_threads
          : std::max(1u, std::thread::hardware_concurrency());
  solver_pool_ = std::make_unique<ThreadPool>(threads);
  stopping_.store(false);
  running_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void MbspdServer::stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  // One byte, never drained: every poll()er sees POLLIN forever.
  const char byte = 1;
  (void)!::write(stop_pipe_[1], &byte, 1);
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    for (auto& conn : connections_) {
      if (conn->thread.joinable()) conn->thread.join();
    }
    connections_.clear();
  }
  if (solver_pool_ != nullptr) {
    solver_pool_->wait_idle();
    solver_pool_.reset();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::close(stop_pipe_[0]);
  ::close(stop_pipe_[1]);
  stop_pipe_[0] = stop_pipe_[1] = -1;
  ::unlink(options_.socket_path.c_str());
}

void MbspdServer::reap_finished_connections() {
  const std::lock_guard<std::mutex> lock(conn_mutex_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load()) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void MbspdServer::accept_loop() {
  while (!stopping_.load()) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) continue;
    if (fds[1].revents != 0 || stopping_.load()) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    reap_finished_connections();
    auto conn = std::make_unique<ConnThread>();
    ConnThread* raw = conn.get();
    active_connections_.fetch_add(1);
    {
      const std::lock_guard<std::mutex> lock(conn_mutex_);
      connections_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, fd, raw] {
      handle_connection(fd);
      ::close(fd);
      active_connections_.fetch_sub(1);
      raw->done.store(true);
    });
  }
}

bool MbspdServer::wait_readable(int fd) {
  pollfd fds[2] = {{fd, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
  if (::poll(fds, 2, -1) < 0) return false;
  // Data already buffered on the connection wins over a concurrent stop:
  // a request that raced the shutdown still gets an answer (possibly
  // kShuttingDown) instead of a silent hangup.
  if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) != 0) return true;
  return false;
}

bool MbspdServer::send_error(int fd, WireError code,
                             const std::string& message) {
  if (is_protocol_error(code)) {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++protocol_errors_;
  }
  return write_frame(fd, FrameType::kError,
                     encode_error({code, message}), nullptr);
}

void MbspdServer::handle_connection(int fd) {
  while (wait_readable(fd)) {
    // Fault containment: an exception while serving a frame costs that
    // request a kInternal answer, never the daemon, and the connection
    // keeps serving because the frame boundary is intact. One thrown while
    // reading a frame leaves the boundary unknown: the connection closes.
    bool framed = false;
    bool alive = false;
    try {
      Frame frame;
      WireError code;
      std::string error;
      bool clean_eof;
      if (!read_frame(fd, &frame, options_.max_request_bytes,
                      /*accept_responses=*/false, &code, &error,
                      &clean_eof)) {
        if (!clean_eof) send_error(fd, code, error);
        return;  // framing is unrecoverable: close the connection
      }
      framed = true;
      switch (frame.type) {
        case FrameType::kPing:
          alive = write_frame(fd, FrameType::kPong, "", nullptr);
          break;
        case FrameType::kStatsRequest:
          alive = write_frame(fd, FrameType::kStatsReply,
                              encode_stats(stats()), nullptr);
          break;
        case FrameType::kScheduleRequest:
        case FrameType::kRepairRequest:
          alive = handle_request(fd, frame.type, frame.payload);
          break;
        default:
          send_error(fd, WireError::kBadFrameType, "unexpected frame type");
          break;  // close the connection
      }
    } catch (const std::exception& e) {
      alive = framed && send_error(fd, WireError::kInternal,
                                   std::string("internal error: ") + e.what());
    } catch (...) {
      alive = framed && send_error(fd, WireError::kInternal, "internal error");
    }
    if (!alive) return;
  }
}

// The request pipeline (docs/DAEMON.md "Serving model"). A SCHEDULE is a
// RepairRequest whose delta is never applied, so both frame types run the
// same stages; each stage that can refuse the request returns the typed
// error that ends it.
struct MbspdServer::Job {
  Job(MbspdServer& server, int fd, bool repair)
      : server(server), fd(fd), repair(repair), received(Clock::now()) {}
  // A pool task holds the job's address until it has answered.
  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  MbspdServer& server;
  const int fd;
  const bool repair;  ///< a REPAIR frame: `request.delta` applies
  const Clock::time_point received;
  RepairRequest request;
  bool ok = true;  ///< every frame so far reached the client

  const MbspScheduler* scheduler = nullptr;
  const MbspScheduler* repairer = nullptr;  ///< REPAIR only
  std::string machine;  ///< canonical machine name from the probe
  SchedulerOptions opts;
  std::shared_ptr<const ComputeDag> dag;  ///< base DAG; null while pinned
  std::uint64_t dag_hash = 0;             ///< base DAG's canonical hash
  std::optional<MbspInstance> inst;       ///< REPAIR: the mutated one
  ScheduleCacheKey key;  ///< the answer's key: base, or repair+ mutated
  CacheStatus answer = CacheStatus::kCold;
  /// The cached answer or incumbent; after a solve, the solved answer.
  ScheduleCacheEntry entry;
  long long iterations = 0;  ///< LNS proposals of the solve

  void send(FrameType type, const std::string& payload) {
    if (ok) ok = write_frame(fd, type, payload, nullptr);
  }
  void status(const char* message) {
    send(FrameType::kStatus, encode_status(message));
  }
  std::string repair_spec() const {
    return scheduler_cache_spec("repair+" + request.scheduler, opts);
  }

  /// Runs the stages on a pool thread; false when the client is gone.
  bool execute() {
    ErrorFrame err;
    try {
      err = run();
    } catch (const std::exception& e) {
      err = {WireError::kInternal, std::string("internal error: ") + e.what()};
    } catch (...) {
      err = {WireError::kInternal, "internal error"};
    }
    if (failed(err)) ok = server.send_error(fd, err.code, err.message);
    return ok;
  }

  ErrorFrame run() {
    ErrorFrame err;
    if (failed(err = resolve()) || failed(err = ingest_dag())) return err;
    // A REPAIR's answer is keyed by the mutated scenario, which exists only
    // once the delta is applied; a SCHEDULE's key is known already, so an
    // exact hit needs no resident DAG.
    if (repair && failed(err = build_instance())) return err;
    lookup();
    if (answer == CacheStatus::kExact) {
      // Served in O(1): no solver invocation, bitwise-identical plan.
      status("cache-hit");
    } else {
      if (!repair && failed(err = build_instance())) return err;
      if (failed(err = solve())) return err;
      memoize();
    }
    reply_final();
    return {};
  }

  /// Stage 1: scheduler and machine resolve first: cheap, and their errors
  /// name the offending token without touching the DAG.
  ErrorFrame resolve() {
    scheduler = server.registry_.find(request.scheduler);
    if (scheduler == nullptr) {
      return {WireError::kUnknownScheduler,
              "unknown scheduler '" + request.scheduler + "'"};
    }
    if (repair) {
      repairer = server.registry_.find("repair");
      if (repairer == nullptr) {
        return {WireError::kInternal,
                "this daemon's registry has no 'repair' scheduler"};
      }
    }
    // Probe build at unit memory: canonical name only (machine names do
    // not depend on the memory scale, which needs the DAG).
    std::string machine_err;
    const auto probe = MachineRegistry::global().make_machine(
        request.machine_spec, 1.0, &machine_err);
    if (!probe) return {WireError::kBadMachineSpec, machine_err};
    machine = probe->name;
    opts.budget_ms = request.budget_ms;
    opts.max_iterations = request.max_iterations;
    opts.seed = request.seed;
    opts.cost = request.cost_model == 0 ? CostModel::kSynchronous
                                        : CostModel::kAsynchronous;
    return {};
  }

  /// Stage 2: an inline DAG is parsed, hash-checked and kept resident; a
  /// pinned hash is resolved by build_instance() when the DAG is needed.
  ErrorFrame ingest_dag() {
    dag_hash = request.dag_hash;
    if (!request.dag_bytes.empty()) {
      std::string dag_err;
      auto parsed = dag_from_bytes(request.dag_bytes, &dag_err);
      if (!parsed) return {WireError::kBadDag, dag_err};
      auto owned = std::make_shared<ComputeDag>(std::move(*parsed));
      dag_hash = dag_canonical_hash(*owned);
      if (request.dag_hash != 0 && request.dag_hash != dag_hash) {
        return {WireError::kBadDag,
                "inline DAG hashes to " + dag_hash_hex(dag_hash) +
                    " but the request pinned " +
                    dag_hash_hex(request.dag_hash)};
      }
      server.store_dag(dag_hash, owned);
      dag = std::move(owned);
    }
    key = {dag_hash, machine,
           scheduler_cache_spec(request.scheduler, opts)};
    return {};
  }

  /// Stages 2-4 for a solve: the resident DAG, the deadline clamp, the
  /// machine at the base DAG's r0 and, for REPAIR, the delta.
  ErrorFrame build_instance() {
    if (dag == nullptr) {
      dag = server.find_dag(dag_hash);
      if (dag == nullptr) {
        return {WireError::kUnknownDagHash,
                "no resident DAG with hash " + dag_hash_hex(dag_hash) +
                    "; resend the request with the DAG inline"};
      }
    }
    // Per-request deadline: covers queue wait (we are past admission
    // here) and clamps the remaining solve budget.
    if (request.deadline_ms > 0) {
      const double elapsed = elapsed_ms_since(received);
      const double remaining = request.deadline_ms - elapsed;
      if (remaining <= 0) {
        return {WireError::kDeadlineExpired,
                "deadline of " + std::to_string(request.deadline_ms) +
                    " ms expired after " + std::to_string(elapsed) +
                    " ms in the admission queue"};
      }
      opts.budget_ms = opts.budget_ms == 0
                           ? remaining
                           : std::min(opts.budget_ms, remaining);
    }
    std::string machine_err;
    auto built = MachineRegistry::global().make_machine(
        request.machine_spec, min_memory_r0(*dag), &machine_err);
    if (!built) return {WireError::kBadMachineSpec, machine_err};
    inst.emplace(MbspInstance{*dag, std::move(*built)});
    if (!repair) return {};
    // The machine is the one the incumbent was solved on; the delta then
    // mutates both dag and machine (docs/REPAIR.md: repair never silently
    // re-scales memory under the incumbent).
    std::string apply_err;
    if (!apply_instance_delta(*inst, request.delta, nullptr, &apply_err)) {
      return {WireError::kBadDelta, apply_err};
    }
    // Memoized under the MUTATED scenario with a "repair+" spec prefix:
    // repeat REPAIRs exact-hit it, while plain SCHEDULE requests for the
    // mutated dag keep their own bitwise solve-equality contract.
    key = {dag_canonical_hash(inst->dag), inst->arch.name, repair_spec()};
    return {};
  }

  /// Stages 5-6: look the answer up, then pick cold, warm or repaired.
  void lookup() {
    if (request.no_cache) return;
    const auto find = [&](const ScheduleCacheKey& k) {
      return server.cache_.lookup(k, request.budget_ms,
                                  request.max_iterations, &entry);
    };
    const CacheHit hit = find(key);
    if (hit == CacheHit::kExact) {
      answer = CacheStatus::kExact;
    } else if (!repair) {
      if (hit == CacheHit::kWarm && is_warm_startable(request.scheduler)) {
        answer = CacheStatus::kWarm;
      }
    } else {
      // The base scenario's incumbent, exact or lower-effort, under its own
      // spec or (chained repair: the pinned base may itself be a repaired
      // scenario) under the repair+ spec.
      ScheduleCacheKey base{dag_hash, machine,
                            scheduler_cache_spec(request.scheduler, opts)};
      bool found = find(base) != CacheHit::kMiss;
      if (!found) {
        base.scheduler_spec = repair_spec();
        found = find(base) != CacheHit::kMiss;
      }
      if (found) answer = CacheStatus::kRepaired;
    }
  }

  /// Stage 7. A SCHEDULE checks supports() before every solve; a REPAIR
  /// only on its cold fallback.
  ErrorFrame solve() {
    if ((!repair || answer == CacheStatus::kCold) &&
        !scheduler->supports(*inst)) {
      return {WireError::kBadRequest,
              "scheduler '" + request.scheduler + "' does not support " +
                  (repair ? "the mutated instance" : "this instance")};
    }
    status(answer == CacheStatus::kWarm       ? "warm-start"
           : answer == CacheStatus::kRepaired ? "repairing"
                                              : "solving");
    if (answer != CacheStatus::kCold) opts.warm_start_plan = &entry.plan;
    if (answer == CacheStatus::kRepaired) opts.repair_delta = &request.delta;
    ScheduleResult result =
        (answer == CacheStatus::kRepaired ? repairer : scheduler)
            ->run(*inst, opts);
    {
      const std::lock_guard<std::mutex> lock(server.stats_mutex_);
      ++server.solver_calls_;
      if (answer == CacheStatus::kRepaired) ++server.repair_hits_;
    }
    for (long p : result.lns_proposed) iterations += p;
    // A warm entry keeps the larger of the cached and requested effort;
    // any other takes the request's, after the deadline clamp.
    const bool warm = answer == CacheStatus::kWarm;
    entry.budget_ms =
        warm ? max_budget_ms(entry.budget_ms, opts.budget_ms) : opts.budget_ms;
    entry.max_iterations =
        warm ? std::max<std::int64_t>(entry.max_iterations,
                                      request.max_iterations)
             : request.max_iterations;
    entry.plan = std::move(result.plan);
    entry.cost = result.cost;
    entry.baseline_cost = result.baseline_cost;
    entry.io_volume = result.io_volume;
    entry.supersteps = static_cast<std::uint32_t>(result.supersteps);
    return {};
  }

  /// Stage 8, run before the final frame goes out so a client that has it
  /// finds the entry. Memoized even when the client is gone: the work is
  /// done either way.
  void memoize() {
    if (request.no_cache) return;
    // Keep the mutated dag resident so follow-up requests can pin its hash
    // (e.g. using the repaired scenario as the next repair base).
    if (repair) {
      server.store_dag(key.dag_hash, std::make_shared<ComputeDag>(inst->dag));
    }
    server.cache_.insert(key, entry);
  }

  /// Stage 9, the one final-reply path of cached and solved answers.
  void reply_final() {
    if (answer != CacheStatus::kExact) {
      send(FrameType::kProgress, encode_progress({0, entry.baseline_cost, 0}));
    }
    send(FrameType::kProgress, encode_progress({1, entry.cost, iterations}));
    FinalResult fin;
    fin.dag_hash = key.dag_hash;
    fin.machine = key.machine;
    fin.scheduler = request.scheduler;
    fin.cost_model = request.cost_model;
    fin.cache = answer;
    fin.cost = entry.cost;
    fin.baseline_cost = entry.baseline_cost;
    fin.io_volume = entry.io_volume;
    fin.supersteps = entry.supersteps;
    fin.plan = std::move(entry.plan);
    send(FrameType::kFinal, encode_final_result(fin));
  }
};

bool MbspdServer::handle_request(int fd, FrameType type,
                                 const std::string& payload) {
  const bool repair = type == FrameType::kRepairRequest;
  Job job(*this, fd, repair);
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++requests_;
    if (repair) ++repair_requests_;
  }
  std::string decode_err;
  WireError code = WireError::kBadRequest;
  const bool decoded =
      repair ? decode_repair_request(payload, &job.request, &decode_err, &code)
             : decode_schedule_request(payload, &job.request, &decode_err);
  if (!decoded) {
    // The frame boundary is intact, so the connection stays usable.
    return send_error(fd, code, decode_err);
  }
  if (job.request.version != kProtocolVersion) {
    return send_error(fd, WireError::kBadVersion,
                      "protocol version " +
                          std::to_string(job.request.version) +
                          " not supported (this daemon speaks " +
                          std::to_string(kProtocolVersion) + ")");
  }
  if (stopping_.load()) {
    return send_error(fd, WireError::kShuttingDown, "daemon is draining");
  }
  if (!write_frame(fd, FrameType::kStatus, encode_status("queued"), nullptr)) {
    return false;
  }
  // The stages run on the pool (its queue is the admission queue); this
  // connection thread blocks until the reply is fully streamed. `alive`
  // reports whether the client is still there.
  std::promise<bool> done;
  std::future<bool> alive = done.get_future();
  solver_pool_->submit([&job, &done] { done.set_value(job.execute()); });
  return alive.get();
}

#else  // !MBSP_DAEMON_POSIX

bool MbspdServer::start(std::string* error) {
  if (error != nullptr) *error = "mbspd requires a POSIX platform";
  return false;
}

void MbspdServer::stop() {}
void MbspdServer::accept_loop() {}
void MbspdServer::reap_finished_connections() {}
void MbspdServer::handle_connection(int) {}
bool MbspdServer::handle_request(int, FrameType, const std::string&) {
  return false;
}
bool MbspdServer::send_error(int, WireError, const std::string&) {
  return false;
}
bool MbspdServer::wait_readable(int) { return false; }

#endif

}  // namespace mbsp::daemon
