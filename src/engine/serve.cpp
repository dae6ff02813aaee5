#include "engine/serve.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <future>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <utility>

#include "engine/failpoint.hpp"
#include "engine/set_decl.hpp"
#include "engine/set_registry.hpp"
#include "engine/shard.hpp"
#include "io/json.hpp"

namespace rv::engine::serve {
namespace {

using io::json_escape;

/// Monotonic milliseconds — paces deadlines, latency counters and the
/// compaction timer only; never feeds payload bytes (the supervisor's
/// contract, see engine/supervisor.hpp).
double now_ms() {
  // rv-lint: allow(nondeterminism) — serve pacing/latency only, never output
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double, std::milli>(t).count();
}

/// Fixed-precision milliseconds for status latency fields.
std::string fmt_ms(double ms) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", ms);
  return buf;
}

[[noreturn]] void parse_fail(const std::string& message) {
  throw ServeError("parse", message);
}

// --------------------------------------------------------------------
// Strict flat-JSON header scanner
// --------------------------------------------------------------------

struct Cursor {
  std::string_view text;
  std::size_t pos = 0;

  [[nodiscard]] bool done() const { return pos >= text.size(); }
  [[nodiscard]] char peek() const { return done() ? '\0' : text[pos]; }
  char get() {
    if (done()) parse_fail("unexpected end of request header");
    return text[pos++];
  }
  void skip_ws() {
    while (!done() && (text[pos] == ' ' || text[pos] == '\t')) ++pos;
  }
  void expect(char c) {
    const char got = get();
    if (got != c) {
      parse_fail(std::string("expected '") + c + "', got '" + got + "'");
    }
  }
};

std::string parse_json_string(Cursor& c) {
  c.expect('"');
  std::string out;
  for (;;) {
    const char ch = c.get();
    if (ch == '"') return out;
    if (static_cast<unsigned char>(ch) < 0x20) {
      parse_fail("raw control byte inside string");
    }
    if (ch != '\\') {
      out += ch;
      continue;
    }
    const char esc = c.get();
    switch (esc) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        unsigned value = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = c.get();
          value <<= 4;
          if (h >= '0' && h <= '9') {
            value |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            value |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            value |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            parse_fail("bad \\u escape");
          }
        }
        if (value >= 0x80) {
          parse_fail("\\u escapes above 0x7f are not supported");
        }
        out += static_cast<char>(value);
        break;
      }
      default:
        parse_fail(std::string("unknown escape '\\") + esc + "'");
    }
  }
}

/// Strict JSON number; returns the raw slice so callers can demand an
/// unsigned integer (no sign/fraction/exponent).
std::string_view parse_json_number(Cursor& c, double* value) {
  const std::size_t start = c.pos;
  if (c.peek() == '-') c.get();
  if (!std::isdigit(static_cast<unsigned char>(c.peek()))) {
    parse_fail("malformed number");
  }
  if (c.peek() == '0') {
    c.get();
  } else {
    while (std::isdigit(static_cast<unsigned char>(c.peek()))) c.get();
  }
  if (c.peek() == '.') {
    c.get();
    if (!std::isdigit(static_cast<unsigned char>(c.peek()))) {
      parse_fail("malformed number (bare '.')");
    }
    while (std::isdigit(static_cast<unsigned char>(c.peek()))) c.get();
  }
  if (c.peek() == 'e' || c.peek() == 'E') {
    c.get();
    if (c.peek() == '+' || c.peek() == '-') c.get();
    if (!std::isdigit(static_cast<unsigned char>(c.peek()))) {
      parse_fail("malformed number (empty exponent)");
    }
    while (std::isdigit(static_cast<unsigned char>(c.peek()))) c.get();
  }
  const std::string_view raw = c.text.substr(start, c.pos - start);
  *value = std::stod(std::string(raw));
  return raw;
}

bool parse_json_bool(Cursor& c) {
  if (c.text.substr(c.pos, 4) == "true") {
    c.pos += 4;
    return true;
  }
  if (c.text.substr(c.pos, 5) == "false") {
    c.pos += 5;
    return false;
  }
  parse_fail("expected true or false");
}

/// File-name-safe set name for per-set persistence files.
std::string sanitize_name(const std::string& name) {
  std::string out = name.empty() ? "inline" : name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

}  // namespace

// --------------------------------------------------------------------
// Request parsing
// --------------------------------------------------------------------

Request parse_request(std::string_view header_line) {
  if (header_line.size() > kMaxHeaderBytes) {
    parse_fail("request header exceeds " + std::to_string(kMaxHeaderBytes) +
               " bytes");
  }
  Cursor c{header_line, 0};
  c.skip_ws();
  c.expect('{');
  Request req;
  std::string op;
  std::set<std::string> seen;
  bool have_extras = false;  // any run-only key on a non-run op
  c.skip_ws();
  if (c.peek() == '}') {
    c.get();
  } else {
    for (;;) {
      c.skip_ws();
      const std::string key = parse_json_string(c);
      if (!seen.insert(key).second) parse_fail("duplicate key '" + key + "'");
      c.skip_ws();
      c.expect(':');
      c.skip_ws();
      if (key == "op") {
        op = parse_json_string(c);
      } else if (key == "id") {
        req.id = parse_json_string(c);
        if (req.id.empty()) parse_fail("'id' must be non-empty");
        if (req.id.size() > 256) parse_fail("'id' exceeds 256 bytes");
      } else if (key == "set") {
        req.set = parse_json_string(c);
        if (req.set.empty()) parse_fail("'set' must be non-empty");
        have_extras = true;
      } else if (key == "body_bytes") {
        double value = 0.0;
        const std::string_view raw = parse_json_number(c, &value);
        if (raw.find_first_not_of("0123456789") != std::string_view::npos) {
          parse_fail("'body_bytes' must be a non-negative integer");
        }
        if (value > static_cast<double>(kMaxBodyBytes)) {
          parse_fail("'body_bytes' exceeds " + std::to_string(kMaxBodyBytes) +
                     " bytes");
        }
        req.has_body = true;
        req.body_bytes = static_cast<std::size_t>(value);
        have_extras = true;
      } else if (key == "format") {
        req.format = parse_json_string(c);
        if (req.format != "csv" && req.format != "json" &&
            req.format != "table") {
          parse_fail("'format' must be csv, json or table, got '" +
                     req.format + "'");
        }
        have_extras = true;
      } else if (key == "deadline_ms") {
        double value = 0.0;
        const std::string_view raw = parse_json_number(c, &value);
        if (raw.front() == '-') {
          parse_fail("'deadline_ms' must be non-negative");
        }
        req.deadline_ms = value;
        have_extras = true;
      } else if (key == "partial") {
        req.partial = parse_json_bool(c);
        have_extras = true;
      } else {
        parse_fail("unknown key '" + key + "'");
      }
      c.skip_ws();
      const char next = c.get();
      if (next == '}') break;
      if (next != ',') parse_fail("expected ',' or '}' after value");
    }
  }
  c.skip_ws();
  if (!c.done()) parse_fail("trailing bytes after request object");
  if (op.empty()) parse_fail("missing required key 'op'");
  if (op == "run") {
    req.op = Op::kRun;
    if (!req.set.empty() && req.has_body) {
      parse_fail("'set' and 'body_bytes' are exclusive");
    }
    if (req.set.empty() && !req.has_body) {
      parse_fail("run requests need 'set' or 'body_bytes'");
    }
  } else if (op == "status" || op == "shutdown") {
    req.op = op == "status" ? Op::kStatus : Op::kShutdown;
    if (have_extras) {
      parse_fail("'" + op + "' requests accept only 'id'");
    }
  } else {
    parse_fail("unknown op '" + op + "'");
  }
  return req;
}

// --------------------------------------------------------------------
// Reply framing
// --------------------------------------------------------------------

std::string frame(const std::string& header, std::string_view payload,
                  bool has_payload) {
  std::string out;
  out.reserve(header.size() + payload.size() + 2);
  out += header;
  out += '\n';
  if (has_payload) {
    out += payload;
    out += '\n';
  }
  return out;
}

std::string error_frame(const std::string& id, const std::string& code,
                        const std::string& message) {
  return frame("{\"reply\":\"error\",\"id\":\"" + json_escape(id) +
               "\",\"code\":\"" + json_escape(code) + "\",\"message\":\"" +
               json_escape(message) + "\"}");
}

bool read_frame(std::istream& in, std::string* header, std::string* payload) {
  header->clear();
  payload->clear();
  if (!std::getline(in, *header)) {
    if (!header->empty()) {
      throw ServeError("parse", "torn reply header (EOF before LF)");
    }
    return false;
  }
  if (in.eof()) {
    // getline stopped at EOF, not at a delimiter — the header line is
    // missing its terminating LF.
    throw ServeError("parse", "torn reply header (EOF before LF)");
  }
  const std::size_t at = header->find("\"bytes\":");
  if (at == std::string::npos) return true;
  std::size_t digits = at + std::string_view("\"bytes\":").size();
  std::size_t bytes = 0;
  if (digits >= header->size() ||
      !std::isdigit(static_cast<unsigned char>((*header)[digits]))) {
    throw ServeError("parse", "malformed 'bytes' field in reply header");
  }
  while (digits < header->size() &&
         std::isdigit(static_cast<unsigned char>((*header)[digits]))) {
    bytes = bytes * 10 + static_cast<std::size_t>((*header)[digits] - '0');
    ++digits;
  }
  payload->resize(bytes);
  if (bytes > 0) in.read(payload->data(), static_cast<std::streamsize>(bytes));
  if (bytes > 0 && static_cast<std::size_t>(in.gcount()) != bytes) {
    throw ServeError("parse", "torn reply payload (EOF mid-payload)");
  }
  const int terminator = in.get();
  if (terminator != '\n') {
    throw ServeError("parse", "torn reply payload (missing trailing LF)");
  }
  return true;
}

// --------------------------------------------------------------------
// Service
// --------------------------------------------------------------------

Service::Service(Options options) : options_(std::move(options)) {
  if (options_.queue_depth == 0) {
    throw std::invalid_argument("serve: queue_depth must be > 0");
  }
  if (options_.workers == 0) {
    throw std::invalid_argument("serve: workers must be > 0");
  }
  if (options_.procs == 0) {
    throw std::invalid_argument("serve: procs must be > 0");
  }
  if (options_.procs > 1 && options_.cache_dir.empty()) {
    throw std::invalid_argument(
        "serve: procs > 1 requires a cache_dir (forked shard workers "
        "exchange *.rvcache files)");
  }
  if (options_.compact_interval_sec > 0.0 && options_.cache_dir.empty()) {
    throw std::invalid_argument(
        "serve: compact_interval_sec requires a cache_dir");
  }
  if (!options_.cache_dir.empty()) {
    std::filesystem::create_directories(options_.cache_dir);
    const CacheLoadStats stats = load_cache_dir(options_.cache_dir, &cache_);
    note("serve: warm-loaded " + std::to_string(stats.loaded) +
         " cache entries from " + options_.cache_dir.string() + " (" +
         std::to_string(stats.files) + " files, " +
         std::to_string(stats.bad_files) + " bad)");
  }
  workers_.reserve(options_.workers);
  for (unsigned w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  if (options_.compact_interval_sec > 0.0) {
    compactor_ = std::thread([this] { compactor_loop(); });
  }
}

Service::~Service() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  compact_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  if (compactor_.joinable()) compactor_.join();
}

void Service::note(const std::string& message) const {
  if (options_.log) options_.log(message);
}

Service::Admission Service::submit(Request request, Sink sink) {
  request.admitted_ms = now_ms();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    request.seq = next_seq_++;
    counters_.requests += 1;
  }
  if (request.id.empty()) request.id = std::to_string(request.seq);
  try {
    RV_FAILPOINT_AT("serve.accept", request.seq);
  } catch (const failpoint::FailpointError& error) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      counters_.errors += 1;
    }
    sink(error_frame(request.id, "failed", error.what()));
    return Admission::kReplied;
  }
  switch (request.op) {
    case Op::kStatus:
      sink(frame(status_header(request)));
      return Admission::kReplied;
    case Op::kShutdown:
      sink(frame("{\"reply\":\"shutdown\",\"id\":\"" +
                 json_escape(request.id) + "\"}"));
      return Admission::kShutdown;
    case Op::kRun:
      break;
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (queue_.size() >= options_.queue_depth) {
      counters_.rejected += 1;
      counters_.errors += 1;
      lock.unlock();
      sink(frame("{\"reply\":\"error\",\"id\":\"" + json_escape(request.id) +
                 "\",\"code\":\"overloaded\",\"retry_after_ms\":" +
                 std::to_string(options_.retry_after_ms) +
                 ",\"message\":\"admission queue full (depth " +
                 std::to_string(options_.queue_depth) + ")\"}"));
      return Admission::kReplied;
    }
    queue_.push_back(Pending{std::move(request), std::move(sink)});
  }
  queue_cv_.notify_one();
  return Admission::kQueued;
}

std::string Service::reject(const std::string& id, const std::string& code,
                            const std::string& message) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    counters_.requests += 1;
    counters_.errors += 1;
  }
  return error_frame(id, code, message);
}

std::string Service::process(const std::string& header_line,
                             std::string_view body) {
  Request request;
  try {
    request = parse_request(header_line);
  } catch (const ServeError& error) {
    return reject("", error.code(), error.what());
  }
  if (request.has_body) {
    if (body.size() != request.body_bytes) {
      return reject(request.id, "parse",
                    "body size mismatch: header declared " +
                        std::to_string(request.body_bytes) + " bytes, got " +
                        std::to_string(body.size()));
    }
    request.body.assign(body);
  } else if (!body.empty()) {
    return reject(request.id, "parse",
                  "request declared no body_bytes but a body was supplied");
  }
  std::promise<std::string> promise;
  std::future<std::string> future = promise.get_future();
  (void)submit(std::move(request),
               [&promise](const std::string& reply) { promise.set_value(reply); });
  return future.get();
}

void Service::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drain_cv_.wait(lock, [&] {
    return queue_.empty() && active_ == 0 && replying_ == 0;
  });
}

Counters Service::counters() const {
  Counters snapshot;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    snapshot = counters_;
    snapshot.queue_depth = queue_.size();
    snapshot.inflight = queue_.size() + active_;
  }
  snapshot.cache_entries = cache_.size();
  return snapshot;
}

std::size_t Service::cache_size() const { return cache_.size(); }

std::string Service::status_header(const Request& request) const {
  const Counters c = counters();
  const double mean_ms =
      c.latency_count > 0
          ? c.latency_total_ms / static_cast<double>(c.latency_count)
          : 0.0;
  std::ostringstream os;
  os << "{\"reply\":\"status\",\"id\":\"" << json_escape(request.id) << "\""
     << ",\"requests\":" << c.requests << ",\"ok\":" << c.ok
     << ",\"errors\":" << c.errors << ",\"rejected\":" << c.rejected
     << ",\"expired\":" << c.expired << ",\"hits\":" << c.hits
     << ",\"misses\":" << c.misses << ",\"uncacheable\":" << c.uncacheable
     << ",\"inflight\":" << c.inflight << ",\"queue_depth\":" << c.queue_depth
     << ",\"cache_entries\":" << c.cache_entries
     << ",\"compactions\":" << c.compactions << ",\"latency\":{\"count\":"
     << c.latency_count << ",\"mean_ms\":" << fmt_ms(mean_ms)
     << ",\"max_ms\":" << fmt_ms(c.latency_max_ms) << "}}";
  return os.str();
}

void Service::worker_loop() {
  for (;;) {
    Pending job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;
      job = std::move(queue_.front());
      queue_.pop_front();
      active_ += 1;
    }
    const std::string reply = execute(job.request);
    // The request completes (counters settle, `inflight` drops) before the
    // reply is delivered: a client that has read its reply must never see
    // this request still in flight on a subsequent `status`.  drain() still
    // waits out the delivery itself via `replying_` — sinks reference the
    // caller's stream state, which must outlive them.
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      active_ -= 1;
      replying_ += 1;
    }
    try {
      job.sink(reply);
    } catch (const std::exception& error) {
      note(std::string("serve: reply delivery failed: ") + error.what());
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      replying_ -= 1;
      if (queue_.empty() && active_ == 0 && replying_ == 0) {
        drain_cv_.notify_all();
      }
    }
  }
}

std::string Service::execute(const Request& request) {
  const auto fail = [&](const std::string& code, const char* message) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      counters_.errors += 1;
      if (code == "deadline") counters_.expired += 1;
    }
    return error_frame(request.id, code, message);
  };
  try {
    RV_FAILPOINT_AT("serve.dispatch", request.seq);
    Reply reply = execute_run(request);
    const double latency = now_ms() - request.admitted_ms;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      counters_.ok += 1;
      counters_.hits += reply.stats.hits;
      counters_.misses += reply.stats.misses;
      counters_.uncacheable += reply.stats.uncacheable;
      counters_.latency_count += 1;
      counters_.latency_total_ms += latency;
      counters_.latency_max_ms = std::max(counters_.latency_max_ms, latency);
    }
    std::ostringstream header;
    header << "{\"reply\":\"" << reply.kind << "\",\"id\":\""
           << json_escape(request.id) << "\",\"bytes\":"
           << reply.payload.size() << ",\"hits\":" << reply.stats.hits
           << ",\"misses\":" << reply.stats.misses
           << ",\"uncacheable\":" << reply.stats.uncacheable;
    if (reply.kind == "partial") {
      header << ",\"missing_indices\":[";
      for (std::size_t i = 0; i < reply.missing.size(); ++i) {
        if (i > 0) header << ',';
        header << reply.missing[i];
      }
      header << ']';
    }
    header << '}';
    return frame(header.str(), reply.payload, true);
  } catch (const ServeError& error) {
    return fail(error.code(), error.what());
  } catch (const SetDeclError& error) {
    return fail("bad-set", error.what());
  } catch (const std::invalid_argument& error) {
    return fail("bad-set", error.what());
  } catch (const std::exception& error) {
    return fail("failed", error.what());
  }
}

Service::Reply Service::execute_run(const Request& request) {
  const double deadline_at = request.deadline_ms > 0.0
                                 ? request.admitted_ms + request.deadline_ms
                                 : 0.0;
  if (deadline_at > 0.0 && now_ms() >= deadline_at) {
    throw ServeError("deadline",
                     "deadline of " + fmt_ms(request.deadline_ms) +
                         " ms expired before dispatch (queue wait)");
  }

  // Named sets come from the parse-once registry; bodies are parsed
  // per request.
  SetDecl body;
  if (request.set.empty()) body = parse_set_decl(request.body);
  const SetDecl& decl = request.set.empty() ? body : builtin_set(request.set);
  const std::string name = decl.name.empty() ? "inline" : decl.name;
  const std::vector<WorkItem> work = decl.set.materialize_work();

  // Classify every cell against the warm cache: hits are answered from
  // memory, misses batched for dispatch.  These counts — not the warm
  // replay's — are what the reply header reports.
  std::vector<WorkItem> misses;
  std::vector<std::size_t> miss_indices;
  Reply reply;
  for (std::size_t i = 0; i < work.size(); ++i) {
    const std::optional<std::string> key = cache_key(work[i]);
    if (!key) {
      reply.stats.uncacheable += 1;
      continue;
    }
    if (cache_.contains(*key)) {
      reply.stats.hits += 1;
    } else {
      reply.stats.misses += 1;
      misses.push_back(work[i]);
      miss_indices.push_back(i);
    }
  }

  if (!misses.empty()) {
    if (options_.procs <= 1) {
      RunnerOptions ropts;
      ropts.threads = options_.threads;
      ropts.cache = &cache_;
      (void)run_scenarios(misses, ropts);
    } else {
      dispatch_forked(name, misses, miss_indices, request, &reply.missing);
    }
    if (reply.missing.size() < misses.size()) persist(name, work);
  }

  // Warm replay of the full (or surviving) set: every computed outcome
  // replays from the cache, so the payload is byte-identical to a
  // single-process `rv_batch run` of the same declaration.
  RunnerOptions warm;
  warm.threads = options_.threads;
  warm.cache = &cache_;
  if (reply.missing.empty()) {
    reply.kind = "ok";
    reply.payload = run_scenarios(work, warm).render(request.format);
  } else {
    reply.kind = "partial";
    reply.payload = run_scenarios(without_items(work, reply.missing), warm)
                        .render(request.format);
  }
  return reply;
}

void Service::dispatch_forked(const std::string& set_name,
                              const std::vector<WorkItem>& misses,
                              const std::vector<std::size_t>& miss_indices,
                              const Request& request,
                              std::vector<std::size_t>* missing) {
  const std::lock_guard<std::mutex> disk(disk_mutex_);
  ForkedShards forked;
  forked.set_name = sanitize_name(set_name) + "-serve";
  forked.cache_dir = options_.cache_dir;
  forked.procs = options_.procs;
  forked.child_site = "serve.shard";
  unsigned budget = options_.threads != 0 ? options_.threads
                                          : std::thread::hardware_concurrency();
  if (budget == 0) budget = 1;
  forked.threads = std::max(1u, static_cast<unsigned>(budget / forked.procs));
  forked.supervisor = options_.supervisor;
  SupervisorOptions& sup = forked.supervisor;
  if (request.deadline_ms > 0.0) {
    const double remaining_ms =
        request.admitted_ms + request.deadline_ms - now_ms();
    if (remaining_ms <= 0.0) {
      throw ServeError("deadline", "deadline of " +
                                       fmt_ms(request.deadline_ms) +
                                       " ms expired before forked dispatch");
    }
    const double remaining_sec = remaining_ms / 1000.0;
    sup.timeout_sec = sup.timeout_sec > 0.0
                          ? std::min(sup.timeout_sec, remaining_sec)
                          : remaining_sec;
  }
  // Children only ever receive misses, so each starts from an empty
  // cache — never a copy of `cache_`, whose mutex another worker may
  // hold at fork time.
  ScenarioCache empty;
  const SupervisorReport report = run_forked_shards(misses, &empty, forked);
  // Fold every child's persisted outcomes back into the warm cache
  // (first-writer-wins; a failed shard's file may simply be absent).
  for (std::size_t p = 0; p < forked.procs; ++p) {
    (void)load_cache_file(
        forked.cache_dir / shard_file_name(forked.set_name, p, forked.procs),
        &cache_);
  }
  if (report.any_failures()) note("serve: supervisor report:\n" + report.table());
  if (report.complete()) return;
  bool timed_out = false;
  for (const ShardStatus& status : report.shards) {
    if (status.succeeded) continue;
    for (const ShardAttempt& attempt : status.attempts) {
      if (attempt.outcome == AttemptOutcome::kTimeout) timed_out = true;
    }
  }
  if (!request.partial) {
    const bool deadline_blame = timed_out && request.deadline_ms > 0.0;
    throw ServeError(deadline_blame ? "deadline" : "failed",
                     "shards failed after retries: " +
                         join_indices(report.failed_shards()) +
                         " (request 'partial' to accept the surviving "
                         "subset)");
  }
  for (const std::size_t j : report.missing_indices(misses.size())) {
    missing->push_back(miss_indices[j]);
  }
}

void Service::persist(const std::string& set_name,
                      const std::vector<WorkItem>& work) {
  if (options_.cache_dir.empty()) return;
  const std::lock_guard<std::mutex> disk(disk_mutex_);
  (void)save_owned_outcomes(
      options_.cache_dir / (sanitize_name(set_name) + "-serve.rvcache"), work,
      shard_plan(work.size(), 0, 1), cache_);
}

void Service::compactor_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto interval =
      std::chrono::duration<double>(options_.compact_interval_sec);
  for (;;) {
    compact_cv_.wait_for(lock, interval, [&] { return stopping_; });
    if (stopping_) return;
    lock.unlock();
    try {
      const std::lock_guard<std::mutex> disk(disk_mutex_);
      const CompactResult result =
          compact_cache_dir(options_.cache_dir, options_.compact);
      {
        const std::lock_guard<std::mutex> counters_lock(mutex_);
        counters_.compactions += 1;
      }
      note("serve: compacted " + std::to_string(result.files.size()) +
           " cache files into " + result.output.filename().string() + " (" +
           std::to_string(result.entries) + " entries, " +
           std::to_string(result.output_bytes) + " bytes)");
    } catch (const std::exception& error) {
      note(std::string("serve: compaction failed: ") + error.what());
    }
    lock.lock();
  }
}

// --------------------------------------------------------------------
// Stream pump
// --------------------------------------------------------------------

bool serve_stream(Service& service, std::istream& in, std::ostream& out) {
  std::mutex write_mutex;
  const auto write_reply = [&](const std::string& reply) {
    const std::lock_guard<std::mutex> lock(write_mutex);
    const failpoint::Hit hit = RV_FAILPOINT_EVAL("serve.reply");
    if (hit.fired && hit.action == failpoint::Action::kTornWrite) {
      const std::size_t n = std::min<std::size_t>(hit.arg, reply.size());
      out.write(reply.data(), static_cast<std::streamsize>(n));
      out.flush();
      return;
    }
    out.write(reply.data(), static_cast<std::streamsize>(reply.size()));
    out.flush();
  };
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    Request request;
    try {
      request = parse_request(line);
    } catch (const ServeError& error) {
      write_reply(service.reject("", error.code(), error.what()));
      continue;
    }
    if (request.has_body) {
      request.body.resize(request.body_bytes);
      if (request.body_bytes > 0) {
        in.read(request.body.data(),
                static_cast<std::streamsize>(request.body_bytes));
        if (static_cast<std::size_t>(in.gcount()) != request.body_bytes) {
          write_reply(service.reject(request.id, "parse",
                                     "EOF inside request body"));
          break;
        }
      }
      const int terminator = in.get();
      if (terminator != '\n') {
        write_reply(service.reject(request.id, "parse",
                                   "request body must end with LF"));
        if (terminator == std::char_traits<char>::eof()) break;
        in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
        continue;
      }
    }
    Service::Admission admission = Service::Admission::kReplied;
    try {
      admission = service.submit(std::move(request), write_reply);
    } catch (const std::exception& error) {
      service.note_failure(std::string("serve: inline reply failed: ") +
                           error.what());
    }
    if (admission == Service::Admission::kShutdown) {
      service.drain();
      return true;
    }
  }
  service.drain();
  return false;
}

void Service::note_failure(const std::string& message) const { note(message); }

}  // namespace rv::engine::serve
