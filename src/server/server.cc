#include "server/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "cache/decomp_cache.h"
#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault_injector.h"
#include "util/thread_pool.h"

namespace htqo {

namespace {

constexpr int kAcceptPollMs = 200;

// Bound + listening TCP socket on host:port; fills *bound_port with the
// kernel-assigned port when `port` is 0. Returns -1 on failure.
int Listen(const std::string& host, uint16_t port, uint16_t* bound_port,
           std::string* error) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = std::string("socket failed: ") + std::strerror(errno);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    *error = "invalid listen address '" + host + "'";
    ::close(fd);
    return -1;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 128) != 0) {
    *error = std::string("bind/listen failed: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

// Accepts one connection if the listener is readable within the poll
// slice; -1 when there is nothing to accept (or the socket died).
int AcceptOne(int listen_fd) {
  struct pollfd pfd;
  pfd.fd = listen_fd;
  pfd.events = POLLIN;
  pfd.revents = 0;
  int rc;
  do {
    rc = ::poll(&pfd, 1, kAcceptPollMs);
  } while (rc < 0 && errno == EINTR);
  if (rc <= 0) return -1;
  int fd;
  do {
    fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  return fd;
}

}  // namespace

QueryServer::QueryServer(const Catalog* catalog,
                         const StatisticsRegistry* stats,
                         ServerOptions options)
    : options_(std::move(options)),
      optimizer_(catalog, stats),
      admission_(options_.admission),
      slo_(options_.default_slo) {}

QueryServer::QueryServer(const Catalog* catalog, StatisticsRegistry* stats,
                         ServerOptions options)
    : options_(std::move(options)),
      optimizer_(catalog, stats),
      admission_(options_.admission),
      slo_(options_.default_slo),
      mutable_stats_(stats) {}

QueryServer::~QueryServer() {
  if (running()) Drain(/*deadline_seconds=*/1.0);
}

Status QueryServer::Start() {
  if (running()) return Status::Internal("server already started");
  std::string error;
  listen_fd_ = Listen(options_.host, options_.port, &port_, &error);
  if (listen_fd_ < 0) return Status::Internal(error);
  if (options_.enable_metrics_http) {
    metrics_fd_ = Listen(options_.host, options_.metrics_http_port,
                         &metrics_http_port_, &error);
    if (metrics_fd_ < 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return Status::Internal("metrics listener: " + error);
    }
  }
  // Pre-grow the shared pool to this server's per-query lane count before
  // any session exists: ThreadPool::Shared growth joins the old pool, so
  // it must never race an in-flight query.
  ThreadPool::Shared(options_.run_template.num_threads);
  // Observability plane: size the process-global flight-recorder ring
  // before installing the crash handler (the handler captures raw ring
  // pointers, so the ring must not be resized afterwards), then seed the
  // per-tenant SLO policies so their gauges exist before the first query.
  FlightRecorder::Global().Reset(options_.flight_capacity);
  if (!options_.crash_dump_path.empty()) {
    FlightRecorder::InstallCrashHandler(options_.crash_dump_path.c_str());
  }
  for (const auto& [tenant, policy] : options_.tenant_slos) {
    slo_.SetPolicy(tenant, policy);
  }
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  if (metrics_fd_ >= 0) {
    metrics_thread_ = std::thread([this] { MetricsLoop(); });
  }
  return Status::Ok();
}

void QueryServer::ReapFinishedLocked() {
  for (std::size_t i = 0; i < sessions_.size();) {
    if (sessions_[i].session->finished()) {
      sessions_[i].thread.join();
      sessions_[i] = std::move(sessions_.back());
      sessions_.pop_back();
    } else {
      ++i;
    }
  }
}

void QueryServer::AcceptLoop() {
  Counter* connections =
      MetricsRegistry::Global().GetCounter(kMetricServerConnectionsTotal);
  Counter* protocol_errors =
      MetricsRegistry::Global().GetCounter(kMetricServerProtocolErrorsTotal);
  while (!stop_.load(std::memory_order_acquire)) {
    int fd = AcceptOne(listen_fd_);
    if (fd < 0) continue;
    if (FaultInjector::Instance().ShouldFail(kFaultSiteServerAccept)) {
      // Injected accept failure: this connection is lost, the server is
      // not. The peer sees a reset; every existing session keeps running.
      protocol_errors->Increment();
      ::close(fd);
      continue;
    }
    connections->Increment();
    std::lock_guard<std::mutex> lock(sessions_mu_);
    ReapFinishedLocked();
    if (sessions_.size() >= options_.max_sessions) {
      // Session cap: tell the peer to back off, exactly like a shed query.
      WriteFrame(fd, MakeErrFrame(
                         AdmissionShedStatus("server at max sessions"),
                         admission_.RetryAfterMs()));
      ::close(fd);
      continue;
    }
    SessionHandle handle;
    handle.session =
        std::make_unique<Session>(this, fd, next_session_id_++);
    Session* raw = handle.session.get();
    handle.thread = std::thread([raw] { raw->Run(); });
    sessions_.push_back(std::move(handle));
  }
}

namespace {

// Minimal JSON string escaping for tenant names and error text.
std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::string QueryServer::DebugJson(const std::string& what, uint64_t id,
                                   uint64_t n) {
  if (what == "sessions") {
    std::string out = "{\"sessions\":[";
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      bool first = true;
      for (const SessionHandle& h : sessions_) {
        Session::StatsView v = h.session->Stats();
        if (!first) out += ',';
        first = false;
        out += "{\"id\":" + std::to_string(v.id) + ",\"tenant\":\"" +
               JsonEscape(v.tenant) +
               "\",\"in_flight\":" + (v.in_flight ? "true" : "false") +
               ",\"queries\":" + std::to_string(v.queries) +
               ",\"errors\":" + std::to_string(v.errors) +
               ",\"last_record\":" + std::to_string(v.last_record_id) + "}";
      }
    }
    out += "],\"max_sessions\":" + std::to_string(options_.max_sessions) +
           ",\"draining\":" + (running() ? "false" : "true") + "}";
    return out;
  }
  if (what == "queues") {
    AdmissionController::Snapshot s = admission_.snapshot();
    std::string out = "{\"active_total\":" + std::to_string(s.active_total) +
                      ",\"waiting_total\":" + std::to_string(s.waiting_total) +
                      ",\"admitted\":" + std::to_string(s.admitted) +
                      ",\"queued\":" + std::to_string(s.queued) +
                      ",\"shed\":" + std::to_string(s.shed) +
                      ",\"queue_timeouts\":" + std::to_string(s.queue_timeouts) +
                      ",\"degraded\":" + std::to_string(s.degraded) +
                      ",\"pressure\":" + JsonDouble(s.pressure) +
                      ",\"degrade_level\":" + std::to_string(s.degrade_level) +
                      ",\"draining\":" + (s.draining ? "true" : "false") +
                      ",\"retry_after_ms\":" + std::to_string(s.retry_after_ms) +
                      ",\"tenants\":{";
    bool first = true;
    for (const auto& [tenant, info] : s.tenants) {
      if (!first) out += ',';
      first = false;
      out += "\"" + JsonEscape(tenant) +
             "\":{\"active\":" + std::to_string(info.active) +
             ",\"waiting\":" + std::to_string(info.waiting) +
             ",\"max_concurrent\":" + std::to_string(info.max_concurrent) +
             ",\"max_queue_depth\":" + std::to_string(info.max_queue_depth) +
             "}";
    }
    out += "},\"slo\":[";
    first = true;
    for (const SloTracker::TenantSlo& slo : slo_.Snapshot()) {
      if (!first) out += ',';
      first = false;
      out += "{\"tenant\":\"" + JsonEscape(slo.tenant) +
             "\",\"target_p99_ms\":" + JsonDouble(slo.policy.target_p99_ms) +
             ",\"error_budget\":" + JsonDouble(slo.policy.error_budget) +
             ",\"queries\":" + std::to_string(slo.queries) +
             ",\"violations\":" + std::to_string(slo.violations) +
             ",\"burn_rate\":" + JsonDouble(slo.burn_rate) + "}";
    }
    out += "]}";
    return out;
  }
  if (what == "cache") {
    DecompCache::Stats s = DecompCache::Global().stats();
    return "{\"entries\":" + std::to_string(s.entries) +
           ",\"bytes\":" + std::to_string(s.bytes) +
           ",\"byte_budget\":" + std::to_string(s.byte_budget) +
           ",\"hits\":" + std::to_string(s.hits) +
           ",\"misses\":" + std::to_string(s.misses) +
           ",\"evictions\":" + std::to_string(s.evictions) +
           ",\"stale\":" + std::to_string(s.stale) +
           ",\"singleflight_waits\":" + std::to_string(s.singleflight_waits) +
           "}";
  }
  if (what == "slow") {
    if (n == 0) n = 16;
    const FlightRecorder& rec = FlightRecorder::Global();
    std::vector<FlightRecord> slow = rec.Slowest(n);
    std::string out =
        "{\"total_recorded\":" + std::to_string(rec.total_recorded()) +
        ",\"capacity\":" + std::to_string(rec.capacity()) + ",\"records\":[";
    for (std::size_t i = 0; i < slow.size(); ++i) {
      if (i > 0) out += ',';
      out += FlightRecordJson(slow[i]);
    }
    out += "]}";
    return out;
  }
  if (what == "record") {
    FlightRecord r;
    if (!FlightRecorder::Global().Find(id, &r)) {
      return "{\"error\":\"record " + std::to_string(id) +
             " not in the retained window\"}";
    }
    return FlightRecordJson(r);
  }
  if (what == "build") {
    return "{\"version\":\"" + JsonEscape(BuildVersionString()) +
           "\",\"git_sha\":\"" + JsonEscape(BuildGitShaString()) +
           "\",\"sanitizer\":\"" + JsonEscape(BuildSanitizerString()) +
           "\",\"pid\":" + std::to_string(::getpid()) +
           ",\"start_time_unix_seconds\":" +
           JsonDouble(ProcessStartTimeSeconds()) +
           ",\"uptime_seconds\":" + JsonDouble(ProcessUptimeSeconds()) +
           ",\"tracing_compiled_in\":" +
           (kTracingCompiledIn ? "true" : "false") + "}";
  }
  return "";
}

void QueryServer::MetricsLoop() {
  Counter* debug_requests =
      MetricsRegistry::Global().GetCounter(kMetricDebugRequestsTotal);
  while (!stop_.load(std::memory_order_acquire)) {
    int fd = AcceptOne(metrics_fd_);
    if (fd < 0) continue;
    // Minimal HTTP: read whatever one poll slice delivers of the request,
    // route on the path, answer, close. Enough for Prometheus, curl, and
    // the CI scraper; anything fancier belongs behind a real proxy.
    char buf[2048];
    ssize_t got = 0;
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    if (::poll(&pfd, 1, 1000) > 0) {
      got = ::recv(fd, buf, sizeof(buf) - 1, 0);
    }
    if (got < 0) got = 0;
    buf[got] = '\0';
    // Request line: "GET <path>[?query] HTTP/1.x". Anything unparseable is
    // treated as GET /metrics, which keeps bare `nc` probes working.
    std::string path = "/metrics";
    {
      std::string_view req(buf, static_cast<std::size_t>(got));
      if (req.substr(0, 4) == "GET ") {
        std::string_view rest = req.substr(4);
        std::size_t end = rest.find_first_of(" \r\n");
        path = std::string(rest.substr(0, end));
      }
    }
    std::string query;
    if (std::size_t q = path.find('?'); q != std::string::npos) {
      query = path.substr(q + 1);
      path.resize(q);
    }
    std::string body;
    std::string content_type = "application/json";
    const char* status_line = "HTTP/1.1 200 OK";
    if (path == "/metrics" || path == "/") {
      body = MetricsRegistry::Global().PrometheusText();
      content_type = "text/plain; version=0.0.4";
    } else if (path.rfind("/debug/", 0) == 0) {
      debug_requests->Increment();
      std::string what = path.substr(7);
      uint64_t rec_id = 0;
      uint64_t slow_n = 0;
      if (what.rfind("record/", 0) == 0) {
        rec_id = std::strtoull(what.c_str() + 7, nullptr, 10);
        what = "record";
      }
      if (query.rfind("n=", 0) == 0) {
        slow_n = std::strtoull(query.c_str() + 2, nullptr, 10);
      }
      body = DebugJson(what, rec_id, slow_n);
      if (body.empty()) {
        status_line = "HTTP/1.1 404 Not Found";
        body = "{\"error\":\"unknown debug path\",\"paths\":[\"/debug/"
               "sessions\",\"/debug/queues\",\"/debug/cache\",\"/debug/"
               "slow\",\"/debug/record/<id>\",\"/debug/build\"]}";
      }
    } else {
      status_line = "HTTP/1.1 404 Not Found";
      body = "{\"error\":\"not found; try /metrics or /debug/*\"}";
    }
    std::string response = std::string(status_line) +
                           "\r\n"
                           "Content-Type: " +
                           content_type +
                           "\r\n"
                           "Content-Length: " +
                           std::to_string(body.size()) +
                           "\r\n"
                           "Connection: close\r\n\r\n" +
                           body;
    std::size_t sent = 0;
    while (sent < response.size()) {
      ssize_t n = ::send(fd, response.data() + sent, response.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    ::close(fd);
  }
}

Status QueryServer::Drain(double deadline_seconds, std::size_t* cancelled) {
  if (cancelled != nullptr) *cancelled = 0;
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    return Status::Ok();  // already drained
  }
  // Phase 1: stop taking work. The accept loop exits at its next poll
  // slice; queued admissions are shed with the drain message; sessions are
  // told to wind down after their current frame.
  admission_.BeginDrain();
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (SessionHandle& h : sessions_) h.session->RequestDrain();
  }
  // Phase 2: wait for in-flight queries until the drain deadline.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(std::max(0.0, deadline_seconds)));
  while (std::chrono::steady_clock::now() < deadline) {
    bool busy = false;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      for (SessionHandle& h : sessions_) {
        if (h.session->query_in_flight()) busy = true;
      }
    }
    if (!busy) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // Phase 3: cancel stragglers through their governors and unblock every
  // session's socket; then joining is bounded by a governor checkpoint.
  std::size_t late = 0;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (SessionHandle& h : sessions_) {
      if (h.session->query_in_flight()) ++late;
      h.session->Cancel();
    }
  }
  if (late > 0) {
    MetricsRegistry::Global()
        .GetCounter(kMetricServerDrainCancelledTotal)
        ->Add(late);
  }
  if (cancelled != nullptr) *cancelled = late;
  // Phase 4: tear down threads and sockets.
  stop_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (metrics_thread_.joinable()) metrics_thread_.join();
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (SessionHandle& h : sessions_) h.thread.join();
    sessions_.clear();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (metrics_fd_ >= 0) ::close(metrics_fd_);
  listen_fd_ = -1;
  metrics_fd_ = -1;
  return Status::Ok();
}

}  // namespace htqo
