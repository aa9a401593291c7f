// WorkerTransport: how the dispatcher starts, watches and kills worker
// processes.  The dispatcher itself never executes a single run in-process
// -- it only writes shard files and supervises workers through this
// interface -- so swapping local fork/exec for ssh or a cluster launcher
// is a transport change, not a scheduler change.
//
// The contract is deliberately minimal (spawn / poll / kill on an opaque
// handle) because that is all work stealing needs: liveness and results
// both come from the workers' checkpoint streams in the work directory,
// not from the transport, so a remote transport only has to make that
// directory visible to the dispatcher.
#pragma once

#include <string>
#include <vector>

namespace ccd::exp {

/// Result of polling a spawned worker.
struct WorkerStatus {
  bool running = true;
  /// Meaningful once !running: the process exit code, or 128+signal when
  /// the worker died to a signal (the shell convention, so a SIGKILLed
  /// worker reads as 137 everywhere).
  int exit_code = 0;
};

class WorkerTransport {
 public:
  virtual ~WorkerTransport() = default;

  /// Launch argv (argv[0] = binary path) with `env` KEY=VALUE pairs added
  /// to the inherited environment.  Returns an opaque handle >= 0, or -1
  /// if the process could not be started.
  virtual int spawn(const std::vector<std::string>& argv,
                    const std::vector<std::string>& env) = 0;

  /// Non-blocking status check.  Once a handle reports !running its status
  /// is latched and poll may be called again freely.
  virtual WorkerStatus poll(int handle) = 0;

  /// Hard-kill the worker (idempotent; no-op once it exited).
  virtual void kill_worker(int handle) = 0;
};

/// Local machine transport: fork/exec, waitpid(WNOHANG), SIGKILL.  The
/// destructor hard-kills and reaps anything still running so a dispatcher
/// that errors out never leaks worker processes.
class LocalProcessTransport : public WorkerTransport {
 public:
  ~LocalProcessTransport() override;

  int spawn(const std::vector<std::string>& argv,
            const std::vector<std::string>& env) override;
  WorkerStatus poll(int handle) override;
  void kill_worker(int handle) override;

 private:
  struct Child {
    long pid = -1;
    bool running = false;
    WorkerStatus last;
  };
  std::vector<Child> children_;
};

}  // namespace ccd::exp
