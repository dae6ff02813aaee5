/// \file rv_serve.cpp
/// The scenario engine as a long-lived daemon.
///
/// Promotes `rv_batch` from one-shot CLI to a resident service over
/// `src/engine/serve.*`: requests (newline-delimited JSON headers with
/// optional raw `.rvset` bodies) arrive on stdin or a Unix socket,
/// hits are answered from the warm persistent cache, misses batched
/// and dispatched through the Runner/shard machinery, and every reply
/// payload is byte-identical to `rv_batch run` on the same
/// declaration.  See docs/OPERATIONS.md ("Operating rv_serve") for
/// the protocol, counters, and failure drills.
///
///     rv_serve --cache-dir cache/                  # stdin/stdout
///     rv_serve --socket /tmp/rv.sock --cache-dir cache/
///
/// Exit codes: 0 (EOF or clean shutdown request), 1 (usage),
/// 2 (runtime failure).

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <iostream>
#include <mutex>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "engine/serve.hpp"
#include "io/args.hpp"

namespace {

constexpr int kExitUsage = 1;
constexpr int kExitFailure = 2;

/// Minimal bidirectional streambuf over one file descriptor (the
/// per-connection transport of socket mode).
class FdStreambuf : public std::streambuf {
 public:
  explicit FdStreambuf(int fd) : fd_(fd) {
    setg(in_, in_, in_);
    setp(out_, out_ + sizeof out_);
  }
  ~FdStreambuf() override { sync(); }
  FdStreambuf(const FdStreambuf&) = delete;
  FdStreambuf& operator=(const FdStreambuf&) = delete;

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    const ssize_t n = ::read(fd_, in_, sizeof in_);
    if (n <= 0) return traits_type::eof();
    setg(in_, in_, in_ + n);
    return traits_type::to_int_type(*gptr());
  }
  int_type overflow(int_type ch) override {
    if (flush_buffer() != 0) return traits_type::eof();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }
  int sync() override { return flush_buffer(); }

 private:
  int flush_buffer() {
    const char* p = pbase();
    std::size_t left = static_cast<std::size_t>(pptr() - pbase());
    while (left > 0) {
      const ssize_t n = ::write(fd_, p, left);
      if (n <= 0) return -1;
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    setp(out_, out_ + sizeof out_);
    return 0;
  }

  int fd_;
  char in_[4096];
  char out_[4096];
};

int run_socket(rv::engine::serve::Service& service, const std::string& path,
               bool quiet) {
  // A client vanishing mid-reply must not SIGPIPE the daemon.
  std::signal(SIGPIPE, SIG_IGN);
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    throw std::runtime_error(std::string("socket() failed: ") +
                             std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    ::close(listener);
    throw std::invalid_argument("--socket path too long (max " +
                                std::to_string(sizeof addr.sun_path - 1) +
                                " bytes)");
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  ::unlink(path.c_str());
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    ::close(listener);
    throw std::runtime_error("bind(" + path +
                             ") failed: " + std::strerror(errno));
  }
  if (::listen(listener, 16) != 0) {
    ::close(listener);
    throw std::runtime_error("listen(" + path +
                             ") failed: " + std::strerror(errno));
  }
  if (!quiet) std::cerr << "rv_serve: listening on " << path << "\n";
  std::atomic<bool> stop{false};
  std::vector<std::thread> connections;
  std::mutex connections_mutex;
  for (;;) {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) {
      if (stop.load() || errno != EINTR) break;
      continue;
    }
    const std::lock_guard<std::mutex> lock(connections_mutex);
    connections.emplace_back([fd, listener, &service, &stop] {
      FdStreambuf buffer(fd);
      std::istream in(&buffer);
      std::ostream out(&buffer);
      const bool shutdown = rv::engine::serve::serve_stream(service, in, out);
      out.flush();
      ::close(fd);
      if (shutdown && !stop.exchange(true)) {
        // Wake the accept loop; it observes `stop` and exits.
        ::shutdown(listener, SHUT_RDWR);
      }
    });
  }
  ::close(listener);
  {
    const std::lock_guard<std::mutex> lock(connections_mutex);
    for (std::thread& connection : connections) connection.join();
  }
  ::unlink(path.c_str());
  if (!quiet) std::cerr << "rv_serve: shut down\n";
  return 0;
}

void usage(std::ostream& os) {
  os << "usage: rv_serve [flags]\n"
     << "  --socket PATH             serve a Unix socket instead of "
        "stdin/stdout\n"
     << "  --cache-dir DIR           persistent *.rvcache directory "
        "(warm-loaded\n"
     << "                            at boot, misses persisted back)\n"
     << "  --queue-depth N           admission queue bound (default 64)\n"
     << "  --workers N               dispatch worker threads (default 1:\n"
     << "                            replies in admission order)\n"
     << "  --threads T               runner threads per dispatch "
        "(0 = hardware)\n"
     << "  --procs P                 forked shard workers per dispatch "
        "(default 1\n"
     << "                            = in-process; >1 needs --cache-dir)\n"
     << "  --compact-interval-sec S  run compact_cache_dir every S seconds\n"
     << "  --compact-max-age-days D  compaction: evict files older than D\n"
     << "  --compact-max-bytes N     compaction: byte budget, oldest out "
        "first\n"
     << "  --retry-after-ms MS       backoff hint on 'overloaded' replies\n"
     << "  --retries R               fork mode: extra attempts per failed "
        "shard\n"
     << "  --shard-timeout SEC       fork mode: per-attempt deadline "
        "(0 = none;\n"
     << "                            request deadlines tighten it per "
        "request)\n"
     << "  --backoff-ms MS           fork mode: base retry backoff\n"
     << "  --quiet                   suppress stderr diagnostics\n"
     << "exit codes: 0 ok (EOF or shutdown request), 1 usage, 2 failure\n";
}

}  // namespace

int main(int argc, char** argv) {
  rv::io::Args args;
  args.declare("socket", "", "Unix socket path (empty = stdin/stdout)");
  args.declare("cache-dir", "", "directory of persistent *.rvcache files");
  args.declare_int("queue-depth", 64, "admission queue bound");
  args.declare_int("workers", 1, "dispatch worker threads");
  args.declare_int("threads", 0, "runner threads per dispatch (0 = hardware)");
  args.declare_int("procs", 1, "forked shard workers per dispatch");
  args.declare_double("compact-interval-sec", 0.0,
                      "compaction timer period (0 = off)");
  args.declare_double("compact-max-age-days", 0.0,
                      "compaction: evict cache files older than this");
  args.declare("compact-max-bytes", "",
               "compaction: byte budget, evicting oldest files first");
  args.declare_int("retry-after-ms", 100,
                   "backoff hint carried by 'overloaded' replies");
  args.declare_int("retries", 0,
                   "fork mode: extra attempts per failed shard");
  args.declare_double("shard-timeout", 0.0,
                      "fork mode: per-attempt deadline in seconds");
  args.declare_int("backoff-ms", 100,
                   "fork mode: base retry backoff in milliseconds");
  args.declare_bool("quiet", "suppress stderr diagnostics");
  try {
    args.parse(argc, argv);
    if (args.help_requested()) {
      usage(std::cout);
      return 0;
    }
    // The integer flag's value, rejected below `min` (0 or 1).
    const auto at_least = [&args](const std::string& flag, int min) {
      const int value = args.get_int(flag);
      if (value < min) {
        throw std::invalid_argument("--" + flag + " must be " +
                                    (min > 0 ? "> 0" : ">= 0"));
      }
      return static_cast<unsigned>(value);
    };
    rv::engine::serve::Options options;
    options.queue_depth = at_least("queue-depth", 1);
    options.workers = at_least("workers", 1);
    options.procs = at_least("procs", 1);
    options.threads = at_least("threads", 0);
    options.retry_after_ms = at_least("retry-after-ms", 0);
    options.supervisor.retries = at_least("retries", 0);
    options.cache_dir = args.get("cache-dir");
    options.compact_interval_sec = args.get_double("compact-interval-sec");
    options.compact.max_age_days = args.get_double("compact-max-age-days");
    const std::string max_bytes = args.get("compact-max-bytes");
    if (!max_bytes.empty()) {
      std::size_t consumed = 0;
      options.compact.max_bytes = std::stoull(max_bytes, &consumed);
      if (consumed != max_bytes.size()) {
        throw std::invalid_argument("--compact-max-bytes must be an integer");
      }
    }
    options.supervisor.timeout_sec = args.get_double("shard-timeout");
    options.supervisor.backoff_ms =
        static_cast<std::uint64_t>(args.get_int("backoff-ms"));
    if (!args.get_bool("quiet")) {
      options.log = [](const std::string& message) {
        std::cerr << message << "\n";
      };
    }
    rv::engine::serve::Service service(std::move(options));
    const std::string socket_path = args.get("socket");
    if (!socket_path.empty()) {
      return run_socket(service, socket_path, args.get_bool("quiet"));
    }
    (void)rv::engine::serve::serve_stream(service, std::cin, std::cout);
    return 0;
  } catch (const std::invalid_argument& e) {
    std::cerr << "rv_serve: " << e.what() << "\n";
    usage(std::cerr);
    return kExitUsage;
  } catch (const std::exception& e) {
    std::cerr << "rv_serve: " << e.what() << "\n";
    return kExitFailure;
  }
}
