// The sidecar layer probe: the estimation_server binary as a child
// process, driven one line at a time over its stdin/stdout.
#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "estimator/synopsis.h"
#include "workloads.h"

namespace xeebench {
namespace {

/// A running estimation_server with pipes on its stdin and stdout. The
/// destructor closes stdin (the server exits on EOF) and reaps the
/// process, killing it if it has not exited within five seconds.
class Child {
 public:
  static std::unique_ptr<Child> Spawn(const std::string& path,
                                      const std::vector<std::string>& args) {
    int in[2], out[2];
    if (pipe(in) != 0) return nullptr;
    if (pipe(out) != 0) {
      close(in[0]);
      close(in[1]);
      return nullptr;
    }
    const pid_t pid = fork();
    if (pid < 0) {
      for (int fd : {in[0], in[1], out[0], out[1]}) close(fd);
      return nullptr;
    }
    if (pid == 0) {
      dup2(in[0], STDIN_FILENO);
      dup2(out[1], STDOUT_FILENO);
      for (int fd : {in[0], in[1], out[0], out[1]}) close(fd);
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(path.c_str()));
      for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      execv(path.c_str(), argv.data());
      _exit(127);
    }
    close(in[0]);
    close(out[1]);
    fcntl(out[0], F_SETFL, fcntl(out[0], F_GETFL) | O_NONBLOCK);
    return std::unique_ptr<Child>(new Child(pid, in[1], out[0]));
  }

  ~Child() {
    close(to_);
    for (int i = 0; i < 100; ++i) {
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
        close(from_);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    close(from_);
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  bool Write(const std::string& s) {
    size_t done = 0;
    while (done < s.size()) {
      const ssize_t n = write(to_, s.data() + done, s.size() - done);
      if (n <= 0) return false;
      done += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads up to the next prompt ("\n> ") and returns the text before
  /// it (the answer line, or the start-up banner). The client spins on
  /// the pipe for a while before it sleeps in poll, so a round trip
  /// costs the server's wake-up but not the client's. False on EOF or
  /// after 60 s without a prompt.
  bool ReadToPrompt(std::string* text) {
    int idle = 0;
    while (true) {
      const size_t at = buf_.find("\n> ", scan_);
      if (at != std::string::npos) {
        text->assign(buf_, 0, at);
        buf_.erase(0, at + 3);
        scan_ = 0;
        return true;
      }
      scan_ = buf_.size() < 2 ? 0 : buf_.size() - 2;
      char chunk[65536];
      const ssize_t n = read(from_, chunk, sizeof(chunk));
      if (n > 0) {
        buf_.append(chunk, static_cast<size_t>(n));
        idle = 0;
        continue;
      }
      if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) return false;
      if (++idle < 200'000) continue;
      pollfd p{from_, POLLIN, 0};
      if (poll(&p, 1, 60'000) <= 0) return false;
    }
  }

 private:
  Child(pid_t pid, int to, int from) : pid_(pid), to_(to), from_(from) {
    // The banner's first line has no newline before it; seed one so the
    // first prompt matches like every later one.
    buf_ = "\n";
  }

  pid_t pid_;
  int to_;
  int from_;
  std::string buf_;
  size_t scan_ = 0;
};

/// One answer line, "<value>  (<outcome>[, ...], <µs>us)": the printed
/// value and the server-side time it reports; `ok` is false for
/// anything else (an error line).
struct Answer {
  bool ok = false;
  std::string value_text;
  double server_us = 0;
};

Answer Parse(const std::string& line) {
  Answer a;
  const size_t open = line.find("  (");
  const size_t us = line.rfind("us)");
  if (open == std::string::npos || us == std::string::npos) return a;
  a.value_text = line.substr(0, open);
  const size_t last = line.rfind(", ", us);
  a.server_us = std::strtod(line.c_str() + last + 2, nullptr);
  a.ok = true;
  return a;
}

}  // namespace

uint64_t ProbeSidecarLayer(const ProbeInput& in, Report* out) {
  // The server as production runs it (defaults), at scale 1 with xmark:
  // the same pristine document as the workload's xmark dataset.
  const Dataset* xm = nullptr;
  for (const Dataset& d : *in.datasets) {
    if (d.name == "xmark") xm = &d;
  }
  if (xm == nullptr) throw std::runtime_error("no xmark dataset");
  const xee::estimator::Synopsis reference =
      xee::estimator::Synopsis::Build(*xm->doc, {});
  std::vector<std::string> lines, expected;
  for (const auto& r : in.texts->reqs) {
    if (r.synopsis != "xmark" || lines.size() == 500) continue;
    lines.push_back("xmark " + r.xpath + "\n");
    const xee::Result<double> e = DirectEstimate(reference, r.xpath);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f", e.ok() ? e.value() : -1.0);
    expected.push_back(buf);
  }

  std::unique_ptr<Child> server =
      Child::Spawn(in.cfg->server, {"--scale=1", "--datasets=xmark"});
  std::string reply;
  if (server == nullptr || !server->ReadToPrompt(&reply)) {
    throw std::runtime_error("estimation_server did not start");
  }
  // One pass compiles every line; five more are timed. Each answer must
  // equal the in-process estimate at the server's printed precision.
  uint64_t mismatches = 0;
  std::vector<double> server_us, frontend_us;
  for (size_t i = 0; i < 6 * lines.size(); ++i) {
    const size_t k = i % lines.size();
    const uint64_t t0 = NowNs();
    if (!server->Write(lines[k]) || !server->ReadToPrompt(&reply)) {
      throw std::runtime_error("estimation_server stopped answering");
    }
    const double rt_us = static_cast<double>(NowNs() - t0) / 1e3;
    const Answer a = Parse(reply);
    if (!a.ok || a.value_text != expected[k]) ++mismatches;
    if (i < lines.size()) continue;
    server_us.push_back(a.server_us);
    frontend_us.push_back(rt_us - a.server_us);
  }
  out->Set("sidecar.server_us", Median(server_us), "us");
  out->Set("sidecar.frontend_us", Median(frontend_us), "us");
  return mismatches;
}

}  // namespace xeebench
