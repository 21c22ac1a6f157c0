// perfbench: the measuring binary of the repository benchmark.
//
// Runs one named workload in one process with an explicit worker count and
// prints one JSON object of raw measurements on stdout: per-repetition
// set-up and run times, the reference-kernel unit times that measure the
// machine's speed, one row per step (host time, outcome fields, frame
// conservation counters, engine post counters, a digest of the simulated
// statistics), the reference and 1-worker replay digests, the simulated
// outcome metrics and, with --trace 1, exact per-layer counts and host-time
// samples. perfbench/run.py builds this binary, turns the raw numbers
// into the reported metrics and judges every step; README.md in this
// directory documents the workloads, the metrics and the span file.
//
// Timing protocol: set-up (model fit + scenario build) runs several times
// and every repetition is reported; one untimed warm-up pass of the
// workload's fixed simulated work fixes the reference digests and outcome
// metrics; the timed phase then repeats the identical work until
// --seconds have passed (and at least a minimum number of times), each
// repetition checked against the reference.

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <memory_resource>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/dynbench.hpp"
#include "apps/scenario.hpp"
#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "core/allocators.hpp"
#include "core/ledger.hpp"
#include "core/manager.hpp"
#include "experiments/episode.hpp"
#include "experiments/model_store.hpp"
#include "obs/obs.hpp"
#include "profile/comm_profiler.hpp"
#include "profile/exec_profiler.hpp"
#include "regress/comm_model.hpp"
#include "regress/exec_model.hpp"
#include "workload/patterns.hpp"

using namespace rtdrm;

namespace {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Peak resident set of this process image in KiB (VmHWM). Unlike
/// getrusage's ru_maxrss it does not inherit the high-water mark of the
/// process that exec'd this one.
long peakRssKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stol(line.substr(6));
    }
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Digests of simulated statistics (FNV-1a over exact bit patterns).

class Digest {
 public:
  Digest& add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
    return *this;
  }
  Digest& add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return add(bits);
  }
  std::uint64_t value() const { return h_; }
  std::string hex() const {
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << h_;
    return os.str();
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Small per-thread index, in the order threads first close a span.
unsigned threadSlot() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned slot = next.fetch_add(1);
  return slot;
}

// ---------------------------------------------------------------------------
// Machine-speed calibration. On a shared virtual machine the medians of
// identical runs made a quarter of an hour apart differed by 15 to 39 %,
// because of what other tenants of the host do. The thread is not
// descheduled (steal time stays below 1 % and thread CPU time drifts as
// much as wall time); the CPU itself is slower. Before every set-up
// repetition and every timed pass the benchmark therefore times one unit
// of a fixed reference kernel, and run.py scales the host times of each
// phase by the reference unit time over the median time of the units
// taken in that phase (benchlib.speed_factor), so that runs at different
// minutes compare. The kernel mixes the simulator's kinds of work: a
// dependent walk over 4 MiB, a binary heap and an ordered tree with node
// churn. It shares no code with the rtdrm libraries, and after its first
// unit it takes no memory from the global allocator, so no change to the
// program alters its time.

class ReferenceKernel {
 public:
  ReferenceKernel() : walk_(kWalkSlots), tree_pool_(&tree_upstream_) {
    // Sattolo's shuffle: one cycle through every slot.
    for (std::uint32_t i = 0; i < kWalkSlots; ++i) {
      walk_[i] = i;
    }
    for (std::uint32_t i = kWalkSlots - 1; i > 0; --i) {
      std::swap(walk_[i], walk_[next() % i]);
    }
    heap_.reserve(kHeapBound + 1);
    unit();  // fills the tree's pool so later units allocate nothing
  }

  /// Host seconds of one unit of the kernel.
  double unit() {
    const auto t0 = Clock::now();
    std::uint32_t p = 0;
    for (int i = 0; i < 400000; ++i) {
      p = walk_[p];
    }
    heap_.clear();
    for (int i = 0; i < 300000; ++i) {
      heap_.push_back(next() + p);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
      if (heap_.size() > kHeapBound) {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
        heap_.pop_back();
      }
    }
    {
      std::pmr::map<std::uint64_t, std::uint64_t> tree(&tree_pool_);
      for (std::uint64_t i = 0; i < 150000; ++i) {
        tree[next() % (2 * kTreeBound)] = i;
        if (tree.size() > kTreeBound) {
          tree.erase(tree.begin());
        }
      }
      sink_ = tree.size() + heap_.front();
    }
    return secondsBetween(t0, Clock::now());
  }

 private:
  static constexpr std::uint32_t kWalkSlots = 1u << 20;
  static constexpr std::size_t kHeapBound = 50000;
  static constexpr std::size_t kTreeBound = 20000;

  std::uint64_t next() {  // xorshift64, fixed stream
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }

  std::uint64_t x_ = 88172645463325252ull;
  std::vector<std::uint32_t> walk_;
  std::vector<std::uint64_t> heap_;
  std::pmr::monotonic_buffer_resource tree_upstream_;
  std::pmr::unsynchronized_pool_resource tree_pool_;
  volatile std::uint64_t sink_ = 0;
};

/// Runs the reference kernel in a child process, so that its memory does
/// not count in the measured process's peak resident set, and never
/// concurrently with measured work: unit() blocks until the child answers.
/// Fork it before any worker thread exists. The destructor ends the child
/// and waits for it; if this process dies first, the kernel kills the
/// child.
class CalibrationProcess {
 public:
  CalibrationProcess() {
    int request[2];
    int reply[2];
    if (pipe(request) != 0 || pipe(reply) != 0) {
      throw std::runtime_error("perfbench: pipe failed");
    }
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0) {
      throw std::runtime_error("perfbench: fork failed");
    }
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) {
        _exit(0);
      }
      close(request[1]);
      close(reply[0]);
      ReferenceKernel kernel;
      char c = 0;
      while (read(request[0], &c, 1) == 1) {
        const double s = kernel.unit();
        if (write(reply[1], &s, sizeof s) != sizeof s) {
          break;
        }
      }
      _exit(0);
    }
    close(request[0]);
    close(reply[1]);
    request_ = request[1];
    reply_ = reply[0];
  }
  CalibrationProcess(const CalibrationProcess&) = delete;
  CalibrationProcess& operator=(const CalibrationProcess&) = delete;
  ~CalibrationProcess() {
    close(request_);
    close(reply_);
    waitpid(pid_, nullptr, 0);
  }

  /// Host seconds of one kernel unit, timed in the child.
  double unit() {
    const char c = 1;
    double s = -1.0;
    if (write(request_, &c, 1) != 1 || read(reply_, &s, sizeof s) != sizeof s) {
      throw std::runtime_error("perfbench: calibration child failed");
    }
    return s;
  }

 private:
  pid_t pid_ = -1;
  int request_ = -1;
  int reply_ = -1;
};

std::uint64_t mixSeed(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// Spans: (id, parent, name, thread, start, end) around the benchmark's own
// calls into each layer, kept in memory and written as JSON Lines at exit.

class SpanLog {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    const char* name = "";
    unsigned thread = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::string attrs;  ///< JSON object text, empty when none
  };

  /// Opens a span; close() records it. With a null log both are no-ops.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, std::uint64_t parent)
        : log_(log), name_(name), parent_(parent) {
      if (log_ != nullptr) {
        id_ = log_->next_id_.fetch_add(1, std::memory_order_relaxed);
        start_ = Clock::now();
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { close(); }
    std::uint64_t id() const { return id_; }
    void setAttrs(std::string attrs) { attrs_ = std::move(attrs); }
    void close() {
      if (log_ == nullptr) {
        return;
      }
      const std::int64_t end = log_->sinceEpoch(Clock::now());
      log_->record(Span{id_, parent_, name_, threadSlot(),
                        log_->sinceEpoch(start_), end, std::move(attrs_)});
      log_ = nullptr;
    }

   private:
    SpanLog* log_;
    const char* name_;
    std::uint64_t parent_;
    std::uint64_t id_ = 0;
    Clock::time_point start_{};
    std::string attrs_;
  };

  /// Sum of the durations of the spans with this name (and, when
  /// `parent` is non-zero, this parent), in seconds.
  double totalSeconds(const std::string& name, std::uint64_t parent = 0) const {
    std::lock_guard<std::mutex> lock(mu_);
    double ns = 0.0;
    for (const Span& s : spans_) {
      if (name == s.name && (parent == 0 || s.parent == parent)) {
        ns += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    return ns * 1e-9;
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  bool writeJsonLines(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"name\":\"" << s.name << "\",\"thread\":" << s.thread
          << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns;
      if (!s.attrs.empty()) {
        out << ",\"attrs\":" << s.attrs;
      }
      out << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  std::int64_t sinceEpoch(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }
  void record(Span s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
  }

  const Clock::time_point epoch_ = Clock::now();
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// ---------------------------------------------------------------------------
// Forwarding allocator: counts (and, when tracing, times) every Fig.-5
// growth call the manager makes, then delegates unchanged.

struct ReplicateTally {
  std::uint64_t calls = 0;
  std::vector<double> timed_us;  ///< host µs of each call made while tracing
};

class CountingAllocator final : public core::Allocator {
 public:
  CountingAllocator(std::unique_ptr<core::Allocator> inner,
                    ReplicateTally* tally, SpanLog* spans,
                    const std::uint64_t* parent_span)
      : inner_(std::move(inner)),
        tally_(tally),
        spans_(spans),
        parent_span_(parent_span) {}

  core::AllocStatus replicate(const core::AllocationContext& ctx,
                              std::size_t stage,
                              task::ReplicaSet& rs) override {
    ++tally_->calls;
    if (spans_ == nullptr) {
      return inner_->replicate(ctx, stage, rs);
    }
    SpanLog::Scope span(spans_, "core.Allocator.replicate", *parent_span_);
    const auto t0 = Clock::now();
    const core::AllocStatus status = inner_->replicate(ctx, stage, rs);
    tally_->timed_us.push_back(secondsBetween(t0, Clock::now()) * 1e6);
    return status;
  }
  std::string name() const override { return inner_->name(); }
  void onModelsRefreshed(const core::PredictiveModels& models) override {
    inner_->onModelsRefreshed(models);
  }

 private:
  std::unique_ptr<core::Allocator> inner_;
  ReplicateTally* tally_;
  SpanLog* spans_;
  const std::uint64_t* parent_span_;
};

// ---------------------------------------------------------------------------
// Set-up: the eq.-3 / eq.-5 model fit.

std::uint64_t modelsDigest(const core::PredictiveModels& m) {
  Digest d;
  for (const regress::ExecLatencyModel& e : m.exec) {
    d.add(e.a1).add(e.a2).add(e.a3).add(e.b1).add(e.b2).add(e.b3);
  }
  d.add(m.comm.buffer.k_ms_per_hundred).add(m.comm.link_rate.bitsPerSecond());
  return d.value();
}

/// experiments::fitAllModels, composed from its public profile/regress
/// calls so each can carry a span. The result must equal fitAllModels'.
core::PredictiveModels fitModelsTraced(const task::TaskSpec& spec,
                                       const experiments::ModelFitConfig& cfg,
                                       SpanLog* spans, std::uint64_t parent) {
  const std::size_t n = spec.stageCount();
  std::vector<regress::ExecModelFit> fits(n);
  parallelFor(n, [&](std::size_t i) {
    profile::ExecProfileConfig ec = cfg.exec;
    ec.seed = cfg.exec.seed + i;
    std::vector<regress::ExecSample> samples;
    {
      SpanLog::Scope s(spans, "profile.profileExecution", parent);
      samples = profile::profileExecution(spec.subtasks[i], ec);
    }
    SpanLog::Scope s(spans, "regress.fitExecModelTwoStage", parent);
    fits[i] = regress::fitExecModelTwoStage(samples);
  });
  core::PredictiveModels models;
  for (const regress::ExecModelFit& f : fits) {
    models.exec.push_back(f.model);
  }
  std::vector<regress::CommSample> comm;
  {
    SpanLog::Scope s(spans, "profile.profileBufferDelay", parent);
    comm = profile::profileBufferDelay(spec, cfg.comm);
  }
  SpanLog::Scope s(spans, "regress.fitBufferDelay", parent);
  models.comm.buffer = regress::fitBufferDelay(comm).model;
  models.comm.link_rate = cfg.link_rate;
  return models;
}

// ---------------------------------------------------------------------------
// Output rows.

/// One step of the workload: an episode (paper-sweep) or a task period
/// (fabric). Conservation counters are -1 where the network has no such
/// law (the shared bus).
struct StepRow {
  int rep = 0;
  bool traced = false;
  std::string key;
  double host_ms = 0.0;
  double missed_pct = 0.0;
  double combined_c = 0.0;
  double cpu_pct = 0.0;
  double net_pct = 0.0;
  double replicas = 0.0;
  double replicas_max = 0.0;
  std::int64_t frames_originated = -1;
  std::int64_t frames_arrived = -1;
  std::int64_t frames_in_fabric = -1;
  std::uint64_t posts_rejected = 0;
  std::uint64_t posts_clamped = 0;
  std::string digest;
};

std::string num(double v) {
  if (std::isnan(v)) {
    return "NaN";
  }
  if (std::isinf(v)) {
    return v > 0 ? "Infinity" : "-Infinity";
  }
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::string numList(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) {
      s += ',';
    }
    s += num(v[i]);
  }
  return s + "]";
}

/// Everything a run reports; serialized by toJson().
struct RunReport {
  std::string workload;
  std::uint64_t seed = 0;
  unsigned workers = 1;
  bool trace = false;
  std::map<std::string, std::string> config;  // value = JSON text
  std::vector<double> setup_s;
  std::vector<double> run_s, traced_run_s;
  /// Reference-kernel unit times, one before each set-up repetition and
  /// one before each timed pass; each phase is scaled by its own units.
  std::vector<double> setup_units_s, timed_units_s;
  std::vector<StepRow> steps;
  std::map<std::string, std::string> reference, replay;
  /// VmHWM after set-up and the warm-up pass. The timed passes repeat the
  /// same work; reading it at exit would add the benchmark's own per-step
  /// records, which grow with the number of passes.
  long peak_rss_kib = -1;
  double missed_pct = 0.0;
  double combined_c = 0.0;
  std::uint64_t released = 0;
  std::uint64_t missed = 0;
  double headline_predictive_c = -1.0;
  double headline_threshold_c = -1.0;
  /// Exact per-layer counts (and simulated values) of the traced run.
  std::map<std::string, double> layers;
  /// Host-time samples of the traced run, one per repetition, build or
  /// call; run.py reduces them (benchlib.per_layer_metrics).
  std::map<std::string, std::vector<double>> samples;
  /// Run-level checks outside the steps; any false fails the run.
  std::map<std::string, bool> checks;
  std::string spans_path;
  std::size_t span_count = 0;

  std::string digest() const {
    Digest d;
    for (const auto& [key, hex] : reference) {
      for (const char c : key) {
        d.add(static_cast<std::uint64_t>(c));
      }
      d.add(static_cast<std::uint64_t>(std::stoull(hex, nullptr, 16)));
    }
    return d.hex();
  }

  std::string toJson() const {
    std::ostringstream o;
    o << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
      << ",\"workers\":" << workers
      << ",\"cpu_count\":" << parallel::config().cpu_count
      << ",\"trace\":" << (trace ? 1 : 0) << ",\"config\":{";
    bool first = true;
    for (const auto& [k, v] : config) {
      o << (first ? "" : ",") << "\"" << k << "\":" << v;
      first = false;
    }
    o << "},\"setup_s\":" << numList(setup_s) << ",\"run_s\":"
      << numList(run_s) << ",\"traced_run_s\":"
      << numList(traced_run_s) << ",\"calibration_s\":{\"setup\":"
      << numList(setup_units_s) << ",\"timed\":" << numList(timed_units_s)
      << "},\"peak_rss_kib\":" << peak_rss_kib
      << ",\"missed_pct\":" << num(missed_pct) << ",\"combined_c\":"
      << num(combined_c) << ",\"released\":" << released
      << ",\"missed\":" << missed << ",\"headline\":{\"predictive_c\":"
      << num(headline_predictive_c) << ",\"threshold_c\":"
      << num(headline_threshold_c) << "},\"digest\":\"" << digest()
      << "\",\"steps\":{\"columns\":[\"rep\",\"traced\",\"key\",\"host_ms\","
         "\"missed_pct\",\"combined_c\",\"cpu_pct\",\"net_pct\","
         "\"replicas\",\"replicas_max\",\"frames_originated\","
         "\"frames_arrived\",\"frames_in_fabric\",\"posts_rejected\","
         "\"posts_clamped\",\"digest\"],\"rows\":[";
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const StepRow& r = steps[i];
      o << (i > 0 ? "," : "") << "[" << r.rep << "," << (r.traced ? 1 : 0)
        << ",\"" << r.key << "\"," << num(r.host_ms) << ","
        << num(r.missed_pct) << "," << num(r.combined_c) << ","
        << num(r.cpu_pct) << "," << num(r.net_pct) << ","
        << num(r.replicas) << "," << num(r.replicas_max) << ","
        << r.frames_originated << "," << r.frames_arrived << ","
        << r.frames_in_fabric << "," << r.posts_rejected << ","
        << r.posts_clamped << ",\"" << r.digest << "\"]";
    }
    o << "]}";
    for (const auto* m : {&reference, &replay}) {
      o << (m == &reference ? ",\"reference\":{" : ",\"replay\":{");
      first = true;
      for (const auto& [k, v] : *m) {
        o << (first ? "" : ",") << "\"" << k << "\":\"" << v << "\"";
        first = false;
      }
      o << "}";
    }
    o << ",\"layers\":{";
    first = true;
    for (const auto& [k, v] : layers) {
      o << (first ? "" : ",") << "\"" << k << "\":" << num(v);
      first = false;
    }
    o << "},\"samples\":{";
    first = true;
    for (const auto& [k, v] : samples) {
      o << (first ? "" : ",") << "\"" << k << "\":" << numList(v);
      first = false;
    }
    o << "},\"checks\":{";
    first = true;
    for (const auto& [k, v] : checks) {
      o << (first ? "" : ",") << "\"" << k << "\":" << (v ? "true" : "false");
      first = false;
    }
    o << "},\"spans\":{\"path\":\"" << spans_path
      << "\",\"count\":" << span_count << "}}";
    return o.str();
  }
};


// ---------------------------------------------------------------------------
// Workloads and the shared run protocol.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
  CalibrationProcess* calibration = nullptr;
};

/// The fabric cell: bench_scale's 256 x 32 cell on a star-3 switched
/// fabric, at a load it sustains without misses.
struct FabricDef {
  std::size_t nodes = 256;
  std::size_t tasks = 32;
  std::size_t segments = 3;
  std::uint64_t periods = 24;
  std::uint64_t drain_periods = 3;
  double min_tracks = 2000.0;
  double max_tracks = 4000.0;
  std::uint64_t ramp_periods = 6;
  std::uint64_t phase_per_task = 5;
};

struct WorkloadDef {
  const char* name;
  unsigned workers;
  /// Event-kernel shards of the fabric cell (1 = single queue); 0 marks
  /// the paper sweep.
  std::size_t shards;
  /// Timed repetitions required before --seconds may end the phase
  /// (enough step samples that >= 10 lie beyond the p90).
  int min_reps;
};

const WorkloadDef kWorkloads[] = {
    {"paper-sweep", 2, 0, 3},
    {"fabric-256", 1, 1, 5},
    {"fabric-256-sharded", 2, 8, 5},
};

constexpr int kSetupReps = 15;
constexpr int kMinTracedReps = 2;

/// Set-up: fits the models kSetupReps times, each followed by one build of
/// the workload's scenario (`build`) and preceded by one calibration unit.
/// In trace mode every other fit is the span-wrapped composition. Every fit
/// must equal the first bit for bit (run-level check setup.fits_agree).
template <typename BuildFn>
core::PredictiveModels runSetup(const Options& opt,
                                const task::TaskSpec& spec, SpanLog* spans,
                                RunReport* rep, BuildFn&& build) {
  const experiments::ModelFitConfig cfg = experiments::defaultModelFitConfig();
  core::PredictiveModels models;
  std::uint64_t first = 0;
  rep->checks["setup.fits_agree"] = true;
  for (int r = 0; r < kSetupReps; ++r) {
    const bool traced = spans != nullptr && r % 2 == 1;
    rep->setup_units_s.push_back(opt.calibration->unit());
    const auto t0 = Clock::now();
    core::PredictiveModels m;
    if (traced) {
      SpanLog::Scope top(spans, "setup.fit", 0);
      m = fitModelsTraced(spec, cfg, spans, top.id());
      top.close();
      rep->samples["profile.exec_s"].push_back(
          spans->totalSeconds("profile.profileExecution", top.id()));
      rep->samples["profile.comm_s"].push_back(
          spans->totalSeconds("profile.profileBufferDelay", top.id()));
      rep->samples["regress.fit_s"].push_back(
          spans->totalSeconds("regress.fitExecModelTwoStage", top.id()) +
          spans->totalSeconds("regress.fitBufferDelay", top.id()));
    } else {
      m = experiments::fitAllModels(spec, cfg).models;
    }
    build(m);
    rep->setup_s.push_back(secondsBetween(t0, Clock::now()));
    const std::uint64_t d = modelsDigest(m);
    if (r == 0) {
      first = d;
      models = std::move(m);
    } else if (d != first) {
      rep->checks["setup.fits_agree"] = false;
    }
  }
  return models;
}

/// The timed phase: repeats `pass(index, traced)`, each after one
/// calibration unit, until --seconds have passed and every kind of pass ran
/// its minimum count. Trace mode alternates untraced and traced passes so
/// the overhead compares like with like.
template <typename PassFn>
void runTimedPhase(const Options& opt, const WorkloadDef& def,
                   RunReport* rep, PassFn&& pass) {
  const auto start = Clock::now();
  int untraced = 0;
  int traced = 0;
  for (int i = 1;; ++i) {
    const bool t = opt.trace && i % 2 == 0;
    rep->timed_units_s.push_back(opt.calibration->unit());
    pass(i, t);
    ++(t ? traced : untraced);
    const bool enough =
        opt.trace ? untraced >= kMinTracedReps && traced >= kMinTracedReps
                  : untraced >= def.min_reps;
    if (enough && secondsBetween(start, Clock::now()) >= opt.seconds) {
      return;
    }
  }
}

std::string jsonString(const std::string& s) { return "\"" + s + "\""; }

// ---------------------------------------------------------------------------
// paper-sweep: Figs. 9-13, {triangular, increasing, decreasing} x 17 max
// workloads x {predictive, threshold} x 3 seeds, 72-period episodes on the
// 6-node Table-1 bus, through experiments::runEpisode.

struct SweepEpisode {
  std::string key;
  const workload::Pattern* pattern = nullptr;
  experiments::AlgorithmKind kind = experiments::AlgorithmKind::kPredictive;
  bool triangular = false;
  /// Replayed at 1 worker: the 14k-track episodes of the first seed.
  bool replay = false;
  experiments::EpisodeConfig cfg;
};

struct PaperSweep {
  std::vector<std::unique_ptr<workload::Pattern>> patterns;
  std::vector<SweepEpisode> episodes;
};

constexpr int kSweepSeeds = 3;

/// The 306 episodes, heaviest first so the two workers finish together.
PaperSweep makePaperSweep(std::uint64_t seed) {
  PaperSweep sw;
  const std::uint64_t base = mixSeed(seed);
  const char* const names[] = {"triangular", "increasing", "decreasing"};
  for (double units = 34.0; units >= 2.0; units -= 2.0) {
    for (const char* name : names) {
      workload::RampParams ramp;
      ramp.min_workload = DataSize::tracks(500.0);
      ramp.max_workload = DataSize::tracks(units * 500.0);
      ramp.ramp_periods = 30;
      sw.patterns.push_back(workload::makeFig8Pattern(name, ramp));
      for (const auto kind : {experiments::AlgorithmKind::kPredictive,
                              experiments::AlgorithmKind::kNonPredictive}) {
        for (int r = 0; r < kSweepSeeds; ++r) {
          SweepEpisode e;
          e.key = std::string(name).substr(0, 3) + "-u" +
                  std::to_string(static_cast<int>(units)) +
                  (kind == experiments::AlgorithmKind::kPredictive ? "-P"
                                                                   : "-T") +
                  "-r" + std::to_string(r);
          e.pattern = sw.patterns.back().get();
          e.kind = kind;
          e.triangular = std::string(name) == "triangular";
          e.replay = units == 28.0 && r == 0;
          e.cfg.periods = 72;
          e.cfg.scenario.seed = base + static_cast<std::uint64_t>(r);
          e.cfg.manager.d_init = std::string(name) == "decreasing"
                                     ? ramp.max_workload
                                     : ramp.min_workload;
          sw.episodes.push_back(std::move(e));
        }
      }
    }
  }
  return sw;
}

std::string episodeDigest(const experiments::EpisodeResult& r) {
  const core::EpisodeMetrics& m = r.metrics;
  Digest d;
  d.add(r.combined).add(r.missed_pct).add(r.cpu_pct).add(r.net_pct);
  d.add(r.avg_replicas);
  d.add(static_cast<std::uint64_t>(m.missed_deadlines.hits()));
  d.add(static_cast<std::uint64_t>(m.missed_deadlines.total()));
  d.add(m.replicate_actions).add(m.shutdown_actions);
  d.add(m.allocation_failures).add(m.end_to_end_ms.mean());
  d.add(static_cast<std::uint64_t>(m.end_to_end_ms.count()));
  return d.hex();
}

/// Layer counters of one episode, read from its exportMetrics() registry.
struct EpisodeCounts {
  std::uint64_t events = 0, cancelled = 0, peak_heap = 0;
  std::uint64_t frames = 0, dropped = 0, messages = 0;
  std::uint64_t samples = 0, rebuilds = 0, cursor = 0;
  std::uint64_t periods = 0;
};

EpisodeCounts readCounts(const obs::MetricsRegistry& reg) {
  auto c = [&](const char* name) -> std::uint64_t {
    const obs::Counter* k = reg.findCounter(name);
    return k != nullptr ? k->value() : 0;
  };
  EpisodeCounts out;
  out.events = c("sim.events_executed");
  out.cancelled = c("sim.events_cancelled");
  const obs::Gauge* heap = reg.findGauge("sim.peak_heap_depth");
  out.peak_heap =
      heap != nullptr ? static_cast<std::uint64_t>(heap->value()) : 0;
  out.frames = c("net.frames_on_wire");
  out.dropped = c("net.frames_dropped");
  out.messages = c("net.messages_delivered");
  out.samples = c("node.samples_taken");
  out.rebuilds = c("node.index_rebuilds");
  out.cursor = c("node.cursor_advances");
  out.periods = c("core.periods_observed");
  return out;
}

struct EpisodeOutcome {
  experiments::EpisodeResult result;
  double host_ms = 0.0;
  EpisodeCounts counts;
};

StepRow episodeRow(int rep, bool traced, const SweepEpisode& e,
                   const EpisodeOutcome& o) {
  StepRow row;
  row.rep = rep;
  row.traced = traced;
  row.key = e.key;
  row.host_ms = o.host_ms;
  row.missed_pct = o.result.missed_pct;
  row.combined_c = o.result.combined;
  row.cpu_pct = o.result.cpu_pct;
  row.net_pct = o.result.net_pct;
  row.replicas = o.result.avg_replicas;
  row.replicas_max = static_cast<double>(e.cfg.scenario.node_count);
  row.digest = episodeDigest(o.result);
  return row;
}

/// One pass over `idx` episodes on `workers` workers. With a span log each
/// episode is wrapped in a span and exports its layer counters through an
/// attached observability bundle.
std::vector<EpisodeOutcome> runSweepPass(const PaperSweep& sw,
                                         const std::vector<std::size_t>& idx,
                                         const task::TaskSpec& spec,
                                         const core::PredictiveModels& models,
                                         unsigned workers, SpanLog* spans,
                                         std::uint64_t parent) {
  std::vector<EpisodeOutcome> out(idx.size());
  parallelFor(
      idx.size(),
      [&](std::size_t i) {
        const SweepEpisode& e = sw.episodes[idx[i]];
        experiments::EpisodeConfig cfg = e.cfg;
        std::unique_ptr<obs::Observability> bundle;
        if (spans != nullptr) {
          bundle = std::make_unique<obs::Observability>(64);
          cfg.obs = bundle.get();
        }
        SpanLog::Scope span(spans, "experiments.runEpisode", parent);
        const auto t0 = Clock::now();
        out[i].result =
            experiments::runEpisode(spec, *e.pattern, models, e.kind, cfg);
        out[i].host_ms = secondsBetween(t0, Clock::now()) * 1e3;
        span.close();
        if (bundle != nullptr) {
          out[i].counts = readCounts(bundle->metrics);
        }
      },
      workers);
  return out;
}

/// The benchmark's own copy of runEpisode's paper-mix wiring (scenario,
/// round-robin homes, allocator, manager), used to time construction
/// (appended to `build_ms` when non-null) and, when `delays_ms` is
/// non-null, to run the episode with a delivery observer on the bus that
/// records every message delay. Returns the episode's digest when run,
/// else "". runEpisode exposes neither its construction nor its network,
/// so the copy stays only until it can take a delivery observer; the
/// run-level check paper.observed_copy_matches fails the run when the
/// copy's digest departs from runEpisode's.
std::string buildObservedEpisode(const SweepEpisode& e,
                                 const task::TaskSpec& spec,
                                 const core::PredictiveModels& models,
                                 SpanLog* spans, std::vector<double>* build_ms,
                                 std::vector<double>* delays_ms) {
  SpanLog::Scope build_span(spans, "apps.build", 0);
  const auto t0 = Clock::now();
  apps::Scenario scenario(e.cfg.scenario);
  std::vector<ProcessorId> homes;
  for (std::size_t s = 0; s < spec.stageCount(); ++s) {
    homes.push_back(ProcessorId{
        static_cast<std::uint32_t>(s % e.cfg.scenario.node_count)});
  }
  std::unique_ptr<core::Allocator> allocator;
  if (e.kind == experiments::AlgorithmKind::kPredictive) {
    allocator = std::make_unique<core::PredictiveAllocator>(models);
  } else {
    allocator = std::make_unique<core::NonPredictiveAllocator>(
        e.cfg.nonpredictive_threshold);
  }
  const workload::Pattern* pattern = e.pattern;
  core::ResourceManager manager(
      scenario.runtime(), spec, task::Placement(homes),
      [pattern](std::uint64_t p) { return pattern->at(p); },
      std::move(allocator), models, e.cfg.manager,
      scenario.streams().get("exec-noise"));
  if (build_ms != nullptr) {
    build_ms->push_back(secondsBetween(t0, Clock::now()) * 1e3);
  }
  build_span.close();
  if (delays_ms == nullptr) {
    return "";
  }
  scenario.net().setDeliveryObserver([delays_ms](const net::MessageReceipt& r) {
    delays_ms->push_back(r.totalDelay().ms());
  });
  manager.start(scenario.sim().now());
  scenario.runFor(spec.period * static_cast<double>(e.cfg.periods));
  manager.stop();
  scenario.runFor(spec.period * e.cfg.drain_periods);
  experiments::EpisodeResult r;
  r.metrics = manager.metrics();
  r.combined = r.metrics.combined(e.cfg.scenario.node_count);
  r.missed_pct = r.metrics.missedRatio() * 100.0;
  r.cpu_pct = r.metrics.cpu_utilization.mean() * 100.0;
  r.net_pct = r.metrics.net_utilization.mean() * 100.0;
  r.avg_replicas = r.metrics.replicas_per_subtask.mean();
  return episodeDigest(r);
}

void runPaperSweep(const Options& opt, const WorkloadDef& def,
                   const task::TaskSpec& spec, SpanLog* spans,
                   RunReport* rep) {
  PaperSweep sw;
  // Set-up builds the sweep's inputs and one episode's scenario + manager
  // (the heaviest); runEpisode builds every episode's own during the pass.
  const core::PredictiveModels models = runSetup(
      opt, spec, spans, rep, [&](const core::PredictiveModels& m) {
        sw = makePaperSweep(opt.seed);
        buildObservedEpisode(sw.episodes.front(), spec, m, nullptr, nullptr,
                             nullptr);
      });
  std::vector<std::size_t> all(sw.episodes.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i] = i;
  }
  rep->config["nodes"] = "6";
  rep->config["tasks"] = "1";
  rep->config["network"] = jsonString("bus (Table 1, 100 Mbps shared)");
  rep->config["shards"] = "1";
  rep->config["episodes"] = std::to_string(sw.episodes.size());
  rep->config["periods_per_episode"] = "72";
  rep->config["load"] = jsonString(
      "Fig. 8 {triangular, increasing, decreasing} ramps, 500 tracks to "
      "{1k..17k} over 30 periods; {predictive, threshold} x 3 seeds");

  // Warm-up pass: fixes the reference digests and the outcome metrics.
  const std::vector<EpisodeOutcome> ref =
      runSweepPass(sw, all, spec, models, def.workers, nullptr, 0);
  rep->peak_rss_kib = peakRssKib();
  double tri_c[2] = {0.0, 0.0};
  int tri_n[2] = {0, 0};
  double pred_c = 0.0;
  int pred_n = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SweepEpisode& e = sw.episodes[i];
    const experiments::EpisodeResult& r = ref[i].result;
    rep->reference[e.key] = episodeDigest(r);
    const int k = e.kind == experiments::AlgorithmKind::kPredictive ? 0 : 1;
    if (e.triangular) {
      tri_c[k] += r.combined;
      ++tri_n[k];
    }
    if (k == 0) {
      rep->released += r.metrics.missed_deadlines.total();
      rep->missed += r.metrics.missed_deadlines.hits();
      pred_c += r.combined;
      ++pred_n;
    }
  }
  rep->missed_pct = rep->released > 0
                        ? 100.0 * static_cast<double>(rep->missed) /
                              static_cast<double>(rep->released)
                        : 0.0;
  rep->combined_c = pred_c / pred_n;
  rep->headline_predictive_c = tri_c[0] / tri_n[0];
  rep->headline_threshold_c = tri_c[1] / tri_n[1];

  EpisodeCounts totals;
  runTimedPhase(opt, def, rep, [&](int pass, bool traced) {
    SpanLog::Scope span(traced ? spans : nullptr, "experiments.sweep", 0);
    const auto t0 = Clock::now();
    const std::vector<EpisodeOutcome> out =
        runSweepPass(sw, all, spec, models, def.workers,
                     traced ? spans : nullptr, span.id());
    const double wall = secondsBetween(t0, Clock::now());
    span.close();
    (traced ? rep->traced_run_s : rep->run_s).push_back(wall);
    double busy = 0.0;
    EpisodeCounts sum;
    for (std::size_t i = 0; i < out.size(); ++i) {
      rep->steps.push_back(episodeRow(pass, traced, sw.episodes[i], out[i]));
      busy += out[i].host_ms * 1e-3;
      const EpisodeCounts& c = out[i].counts;
      sum.events += c.events;
      sum.cancelled += c.cancelled;
      sum.peak_heap = std::max(sum.peak_heap, c.peak_heap);
      sum.frames += c.frames;
      sum.dropped += c.dropped;
      sum.messages += c.messages;
      sum.samples += c.samples;
      sum.rebuilds += c.rebuilds;
      sum.cursor += c.cursor;
      sum.periods += c.periods;
    }
    if (traced) {
      totals = sum;
    } else {
      rep->samples["busy_s"].push_back(busy);
    }
  });

  // Short replay at 1 worker: the 14k-track episodes of the first seed.
  std::vector<std::size_t> replay;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (sw.episodes[i].replay) {
      replay.push_back(i);
    }
  }
  const std::vector<EpisodeOutcome> again =
      runSweepPass(sw, replay, spec, models, 1, nullptr, 0);
  for (std::size_t j = 0; j < replay.size(); ++j) {
    rep->replay[sw.episodes[replay[j]].key] = episodeDigest(again[j].result);
  }

  if (spans == nullptr) {
    return;
  }
  // Construction cost of every episode's scenario + manager, and the
  // message delays of the replayed episodes run with a delivery observer.
  std::vector<double> delays;
  rep->checks["paper.observed_copy_matches"] = true;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SweepEpisode& e = sw.episodes[i];
    const std::string d = buildObservedEpisode(
        e, spec, models, spans, &rep->samples["apps.build_ms"],
        e.replay ? &delays : nullptr);
    if (e.replay && d != rep->reference[e.key]) {
      rep->checks["paper.observed_copy_matches"] = false;
    }
  }
  double ci = 0.0;
  for (const auto& o : ref) {
    ci += o.result.cpu_pct;
  }
  std::map<std::string, double>& L = rep->layers;
  L["experiments.episodes"] = static_cast<double>(all.size());
  L["sim.events"] = static_cast<double>(totals.events);
  L["sim.events_cancelled"] = static_cast<double>(totals.cancelled);
  L["sim.peak_heap_depth"] = static_cast<double>(totals.peak_heap);
  L["net.frames"] = static_cast<double>(totals.frames);
  L["net.frames_dropped"] = static_cast<double>(totals.dropped);
  L["net.messages"] = static_cast<double>(totals.messages);
  L["net.msg_delay_ms_p90"] = percentile(delays, 90.0);
  for (const char* name :
       {"sim.sharded.rounds", "sim.sharded.shard_windows",
        "sim.sharded.windows_skipped", "sim.sharded.posts_merged"}) {
    L[name] = 0.0;  // single event queue: no barrier rounds
  }
  L["node.samples"] = static_cast<double>(totals.samples);
  L["node.index_rebuilds"] = static_cast<double>(totals.rebuilds);
  L["node.cursor_advances"] = static_cast<double>(totals.cursor);
  L["node.util_pct"] = ci / static_cast<double>(ref.size());
  L["core.periods"] = static_cast<double>(totals.periods);
  L["core.replicate_calls"] = 0.0;  // runEpisode owns its allocator
  std::uint64_t ra = 0, sa = 0, af = 0;
  for (const auto& o : ref) {
    ra += o.result.metrics.replicate_actions;
    sa += o.result.metrics.shutdown_actions;
    af += o.result.metrics.allocation_failures;
  }
  L["core.replicate_actions"] = static_cast<double>(ra);
  L["core.shutdown_actions"] = static_cast<double>(sa);
  L["core.alloc_failures"] = static_cast<double>(af);
}

// ---------------------------------------------------------------------------
// fabric-256 / fabric-256-sharded: 256 nodes x 32 tasks on a star-3
// switched fabric, one manager per task sharing a workload ledger.

struct FabricCell {
  FabricCell(const apps::ScenarioConfig& sc, const workload::RampParams& ramp)
      : scenario(sc), pattern(ramp) {}
  apps::Scenario scenario;
  core::WorkloadLedger ledger;
  workload::Triangular pattern;
  std::vector<task::TaskSpec> specs;
  std::vector<std::unique_ptr<core::ResourceManager>> managers;
};

constexpr FabricDef kFabric{};

std::unique_ptr<FabricCell> buildFabricCell(
    const FabricDef& f, std::size_t shards, std::uint64_t seed,
    const task::TaskSpec& spec,
    const core::PredictiveModels& models, ReplicateTally* tally,
    SpanLog* spans, const std::uint64_t* parent_span) {
  apps::ScenarioConfig sc;
  sc.node_count = f.nodes;
  sc.net_kind = net::NetKind::kSwitched;
  sc.fabric.segments = f.segments;
  sc.fabric.topology = net::FabricTopology::kStar;
  sc.sim_shards = shards;
  sc.sim_mode = parallel::SimMode::kDeterministic;
  sc.sim_lookahead = parallel::LookaheadPolicy::kAdaptive;
  sc.seed = mixSeed(seed);
  workload::RampParams ramp;
  ramp.min_workload = DataSize::tracks(f.min_tracks);
  ramp.max_workload = DataSize::tracks(f.max_tracks);
  ramp.ramp_periods = f.ramp_periods;
  auto cell = std::make_unique<FabricCell>(sc, ramp);
  cell->specs.assign(f.tasks, spec);
  for (std::size_t t = 0; t < f.tasks; ++t) {
    cell->specs[t].name = spec.name + "#" + std::to_string(t + 1);
    // Staggered primaries and phase-shifted peaks, as in bench_scale.
    std::vector<ProcessorId> homes;
    for (std::size_t s = 0; s < spec.stageCount(); ++s) {
      homes.push_back(
          ProcessorId{static_cast<std::uint32_t>((s + 2 * t) % f.nodes)});
    }
    core::ManagerConfig mc;
    mc.sample_cluster = t == 0;
    const std::uint64_t phase = t * f.phase_per_task;
    const workload::Triangular* pattern = &cell->pattern;
    cell->managers.push_back(std::make_unique<core::ResourceManager>(
        cell->scenario.runtime(), cell->specs[t], task::Placement(homes),
        [pattern, phase](std::uint64_t c) { return pattern->at(c + phase); },
        std::make_unique<CountingAllocator>(
            std::make_unique<core::PredictiveAllocator>(models), tally, spans,
            parent_span),
        models, mc, cell->scenario.streams().get("exec-noise", t)));
    cell->managers.back()->attachLedger(cell->ledger);
  }
  return cell;
}

/// Fills the outcome fields, frame and post counters and digest of a step
/// row from the cell's cumulative state.
void fillFabricRow(FabricCell& cell, StepRow* row) {
  apps::Scenario& sc = cell.scenario;
  net::SwitchedFabric& fab = sc.fabric();
  Digest d;
  d.add(sc.engine().eventsExecuted()).add(fab.framesOnWire());
  d.add(fab.framesDropped()).add(fab.messagesDelivered());
  d.add(fab.busyTime().ms());
  std::uint64_t hits = 0, total = 0;
  double c = 0.0, cpu = 0.0, netu = 0.0, reps = 0.0;
  for (const auto& m : cell.managers) {
    const core::EpisodeMetrics& em = m->metrics();
    hits += em.missed_deadlines.hits();
    total += em.missed_deadlines.total();
    c += em.combined(sc.config().node_count);
    cpu += em.cpu_utilization.mean();
    netu += em.net_utilization.mean();
    reps += em.replicas_per_subtask.mean();
    d.add(static_cast<std::uint64_t>(em.missed_deadlines.hits()));
    d.add(static_cast<std::uint64_t>(em.missed_deadlines.total()));
    d.add(em.replicate_actions).add(em.shutdown_actions);
    d.add(em.allocation_failures).add(em.cpu_utilization.mean());
    d.add(em.net_utilization.mean()).add(em.replicas_per_subtask.mean());
    d.add(em.end_to_end_ms.mean());
  }
  const auto n = static_cast<double>(cell.managers.size());
  row->missed_pct = total > 0 ? 100.0 * static_cast<double>(hits) /
                                    static_cast<double>(total)
                              : 0.0;
  row->combined_c = c / n;
  row->cpu_pct = 100.0 * cpu / n;
  row->net_pct = 100.0 * netu / n;
  row->replicas = reps / n;
  row->replicas_max = static_cast<double>(sc.config().node_count);
  row->frames_originated = static_cast<std::int64_t>(fab.framesOriginated());
  row->frames_arrived = static_cast<std::int64_t>(fab.framesArrived());
  row->frames_in_fabric = static_cast<std::int64_t>(fab.framesInFabric());
  row->posts_rejected = sc.engine().rejectedPosts();
  row->posts_clamped = sc.engine().clampedPosts();
  row->digest = d.hex();
}

std::string periodKey(std::uint64_t p) {
  return (p < 10 ? "p0" : "p") + std::to_string(p);
}

/// One pass of the fabric cell's fixed work: `periods` task periods with
/// releases, then the drain periods; each period is one step. Returns the
/// host seconds of the simulated periods (the build is not included).
/// With a span log, per-shard post-event hooks count each period's events
/// per shard; `hooks_agree` reports whether they saw every executed event.
double runFabricPass(FabricCell& cell, std::uint64_t periods,
                     std::uint64_t drain, int rep, bool traced, SpanLog* spans,
                     std::uint64_t parent, std::uint64_t* current_span,
                     std::vector<StepRow>* rows, bool* hooks_agree) {
  apps::Scenario& sc = cell.scenario;
  const SimDuration period = cell.specs.front().period;
  std::vector<std::uint64_t> shard_events(sc.engine().shardCount(), 0);
  if (spans != nullptr) {
    for (std::size_t s = 0; s < shard_events.size(); ++s) {
      sc.engine().shard(s).setPostEventHook(
          [slot = &shard_events[s]] { ++*slot; });
    }
  }
  std::uint64_t hooked = 0;
  const std::uint64_t events_before = sc.engine().eventsExecuted();
  double total = 0.0;
  for (auto& m : cell.managers) {
    m->start(sc.sim().now());
  }
  for (std::uint64_t p = 0; p < periods + drain; ++p) {
    if (p == periods) {
      for (auto& m : cell.managers) {
        m->stop();
      }
    }
    std::fill(shard_events.begin(), shard_events.end(), 0);
    SpanLog::Scope span(spans, "apps.Scenario.runFor", parent);
    *current_span = span.id();
    const auto t0 = Clock::now();
    sc.runFor(period);
    const double dt = secondsBetween(t0, Clock::now());
    if (spans != nullptr) {
      std::string attrs = "{\"shard_events\":[";
      for (std::size_t s = 0; s < shard_events.size(); ++s) {
        if (s > 0) {
          attrs += ',';
        }
        attrs += std::to_string(shard_events[s]);
        hooked += shard_events[s];
      }
      span.setAttrs(attrs + "]}");
    }
    span.close();
    total += dt;
    StepRow row;
    row.rep = rep;
    row.traced = traced;
    row.key = periodKey(p);
    row.host_ms = dt * 1e3;
    fillFabricRow(cell, &row);
    rows->push_back(std::move(row));
  }
  if (spans != nullptr) {
    for (std::size_t s = 0; s < shard_events.size(); ++s) {
      sc.engine().shard(s).setPostEventHook(nullptr);
    }
    *hooks_agree = hooked == sc.engine().eventsExecuted() - events_before;
  }
  return total;
}

void runFabric(const Options& opt, const WorkloadDef& def,
               const task::TaskSpec& spec, SpanLog* spans, RunReport* rep) {
  const FabricDef& f = kFabric;
  ReplicateTally tally;
  std::uint64_t current_span = 0;
  const core::PredictiveModels models =
      runSetup(opt, spec, spans, rep,
               [&](const core::PredictiveModels& m) {
                 buildFabricCell(f, def.shards, opt.seed, spec, m, &tally,
                                 nullptr, &current_span);
               });
  rep->config["nodes"] = std::to_string(f.nodes);
  rep->config["tasks"] = std::to_string(f.tasks);
  rep->config["network"] =
      jsonString("switched star-" + std::to_string(f.segments) +
                 " (100 Mbps links, 32-frame port buffers)");
  rep->config["shards"] = std::to_string(def.shards);
  rep->config["periods"] = std::to_string(f.periods);
  rep->config["drain_periods"] = std::to_string(f.drain_periods);
  rep->config["load"] = jsonString(
      "triangular " + std::to_string(int(f.min_tracks)) + "-" +
      std::to_string(int(f.max_tracks)) + " tracks, " +
      std::to_string(f.ramp_periods) + "-period ramp, phase " +
      std::to_string(f.phase_per_task) + " periods per task");

  // Warm-up pass: reference digests per period and the outcome metrics.
  {
    auto cell = buildFabricCell(f, def.shards, opt.seed, spec, models, &tally,
                                nullptr, &current_span);
    std::vector<StepRow> rows;
    runFabricPass(*cell, f.periods, f.drain_periods, 0, false, nullptr, 0,
                  &current_span, &rows, nullptr);
    rep->peak_rss_kib = peakRssKib();
    for (const StepRow& r : rows) {
      rep->reference[r.key] = r.digest;
    }
    std::uint64_t hits = 0, total = 0;
    double c = 0.0;
    for (const auto& m : cell->managers) {
      hits += m->metrics().missed_deadlines.hits();
      total += m->metrics().missed_deadlines.total();
      c += m->metrics().combined(f.nodes);
    }
    rep->released = total;
    rep->missed = hits;
    rep->missed_pct = total > 0 ? 100.0 * static_cast<double>(hits) /
                                      static_cast<double>(total)
                                : 0.0;
    rep->combined_c = c / static_cast<double>(cell->managers.size());
  }

  std::vector<double>& build_ms = rep->samples["apps.build_ms"];
  std::vector<double> delays;
  std::map<std::string, double> counts;
  ReplicateTally traced_tally;
  if (spans != nullptr) {
    rep->checks["trace.hooks_saw_every_event"] = true;
  }
  runTimedPhase(opt, def, rep, [&](int pass, bool traced) {
    SpanLog* sp = traced ? spans : nullptr;
    ReplicateTally* t = traced ? &traced_tally : &tally;
    SpanLog::Scope top(sp, "fabric.pass", 0);
    const auto b0 = Clock::now();
    std::unique_ptr<FabricCell> cell;
    {
      SpanLog::Scope span(sp, "apps.build", top.id());
      cell = buildFabricCell(f, def.shards, opt.seed, spec, models, t, sp,
                             &current_span);
    }
    build_ms.push_back(secondsBetween(b0, Clock::now()) * 1e3);
    if (traced) {
      delays.clear();
      cell->scenario.net().setDeliveryObserver(
          [&delays](const net::MessageReceipt& r) {
            delays.push_back(r.totalDelay().ms());
          });
      traced_tally.calls = 0;
    }
    bool hooks_agree = true;
    const double run = runFabricPass(*cell, f.periods, f.drain_periods, pass,
                                     traced, sp, top.id(), &current_span,
                                     &rep->steps, &hooks_agree);
    if (!hooks_agree) {
      rep->checks["trace.hooks_saw_every_event"] = false;
    }
    top.close();
    (traced ? rep->traced_run_s : rep->run_s).push_back(run);
    if (!traced) {
      rep->samples["busy_s"].push_back(run);  // one thread runs every shard
      return;
    }
    // Layer counters of this pass, through each layer's exportMetrics().
    counts.clear();
    obs::MetricsRegistry eng;
    cell->scenario.engine().exportMetrics(eng);
    eng.forEachCounter([&](const std::string& n, const obs::Counter& c) {
      counts[n] = static_cast<double>(c.value());
    });
    for (std::size_t s = 0; s < cell->scenario.engine().shardCount(); ++s) {
      obs::MetricsRegistry r;
      cell->scenario.engine().shard(s).exportMetrics(r);
      counts["sim.events"] += r.findCounter("sim.events_executed")->value();
      counts["sim.events_cancelled"] +=
          r.findCounter("sim.events_cancelled")->value();
      counts["sim.peak_heap_depth"] =
          std::max(counts["sim.peak_heap_depth"],
                   r.findGauge("sim.peak_heap_depth")->value());
    }
    obs::MetricsRegistry rest;
    cell->scenario.net().exportMetrics(rest);
    cell->scenario.cluster().exportMetrics(rest);
    for (const auto& m : cell->managers) {
      obs::MetricsRegistry r;
      m->exportMetrics(r);
      r.forEachCounter([&](const std::string& n, const obs::Counter& c) {
        counts[n] += static_cast<double>(c.value());
      });
    }
    rest.forEachCounter([&](const std::string& n, const obs::Counter& c) {
      counts[n] = static_cast<double>(c.value());
    });
    counts["core.replicate_calls"] = static_cast<double>(traced_tally.calls);
    double util = 0.0;
    for (const auto& m : cell->managers) {
      util += m->metrics().cpu_utilization.mean();
    }
    counts["node.util_pct"] =
        100.0 * util / static_cast<double>(cell->managers.size());
  });

  // Short replay at 1 worker: the first six periods from a fresh build.
  parallel::setThreads(1);
  {
    auto cell = buildFabricCell(f, def.shards, opt.seed, spec, models, &tally,
                                nullptr, &current_span);
    std::vector<StepRow> rows;
    runFabricPass(*cell, 6, 0, -1, false, nullptr, 0, &current_span, &rows,
                  nullptr);
    for (const StepRow& r : rows) {
      rep->replay[r.key] = r.digest;
    }
  }
  parallel::setThreads(def.workers);

  if (spans == nullptr) {
    return;
  }
  std::map<std::string, double>& L = rep->layers;
  L["experiments.episodes"] = 0.0;
  L["sim.events"] = counts["sim.events"];
  L["sim.events_cancelled"] = counts["sim.events_cancelled"];
  L["sim.peak_heap_depth"] = counts["sim.peak_heap_depth"];
  L["sim.sharded.rounds"] = counts["sim.sharded.windows"];
  L["sim.sharded.shard_windows"] = counts["sim.sharded.shard_windows"];
  L["sim.sharded.windows_skipped"] =
      counts["sim.sharded.shard_windows_skipped"];
  L["sim.sharded.posts_merged"] = counts["sim.sharded.posts_merged"];
  L["net.frames"] = counts["net.frames_on_wire"];
  L["net.frames_dropped"] = counts["net.frames_dropped"];
  L["net.messages"] = counts["net.messages_delivered"];
  L["net.msg_delay_ms_p90"] = percentile(delays, 90.0);
  L["node.samples"] = counts["node.samples_taken"];
  L["node.index_rebuilds"] = counts["node.index_rebuilds"];
  L["node.cursor_advances"] = counts["node.cursor_advances"];
  L["node.util_pct"] = counts["node.util_pct"];
  L["core.periods"] = counts["core.periods_observed"];
  L["core.replicate_calls"] = counts["core.replicate_calls"];
  rep->samples["core.replicate_us"] = std::move(traced_tally.timed_us);
  L["core.replicate_actions"] = counts["core.replicate_actions"];
  L["core.shutdown_actions"] = counts["core.shutdown_actions"];
  L["core.alloc_failures"] = counts["core.allocation_failures"];
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::int64_t seed = 1;
  std::int64_t trace = 0;
  ArgParser parser("perfbench",
                   "Runs one benchmark workload and prints raw measurements "
                   "as one JSON object (see perfbench/README.md)");
  parser.addString("workload", "paper-sweep | fabric-256 | fabric-256-sharded",
                   &opt.workload)
      .addInt("seed", "input seed (non-negative)", &seed)
      .addDouble("seconds", "minimum length of the timed phase", &opt.seconds)
      .addInt("trace", "1 = traced run (per-layer metrics and spans)", &trace)
      .addString("spans", "JSON Lines file for the spans of a traced run",
                 &opt.spans_path);
  if (!parser.parse(argc, argv)) {
    return parser.helpRequested() ? 0 : 2;
  }
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (opt.workload == w.name) {
      def = &w;
    }
  }
  if (def == nullptr || seed < 0 || !(opt.seconds > 0.0) ||
      (trace != 0 && trace != 1)) {
    std::cerr << "perfbench: bad arguments (workload '" << opt.workload
              << "', seed " << seed << ", seconds " << opt.seconds
              << ", trace " << trace << ")\n";
    return 2;
  }
  opt.seed = static_cast<std::uint64_t>(seed);
  opt.trace = trace == 1;

  // The calibration child is forked while this process has one thread.
  CalibrationProcess calibration;
  opt.calibration = &calibration;
  // Worker count first: the model fit fans out over the configured budget.
  parallel::setThreads(def->workers);
  parallel::setSimMode(parallel::SimMode::kDeterministic);
  parallel::setLookaheadPolicy(parallel::LookaheadPolicy::kAdaptive);

  SpanLog span_log;
  SpanLog* spans = opt.trace ? &span_log : nullptr;
  const task::TaskSpec spec = apps::makeAawTaskSpec();
  RunReport rep;
  rep.workload = def->name;
  rep.seed = opt.seed;
  rep.workers = def->workers;
  rep.trace = opt.trace;
  rep.config["workers"] = std::to_string(def->workers);
  if (def->shards == 0) {
    runPaperSweep(opt, *def, spec, spans, &rep);
  } else {
    runFabric(opt, *def, spec, spans, &rep);
  }
  if (spans != nullptr) {
    rep.span_count = spans->size();
    if (!opt.spans_path.empty()) {
      if (!spans->writeJsonLines(opt.spans_path)) {
        std::cerr << "perfbench: cannot write " << opt.spans_path << "\n";
        return 1;
      }
      rep.spans_path = opt.spans_path;
    }
  }
  std::cout << rep.toJson() << std::endl;
  return 0;
}
