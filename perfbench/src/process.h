#ifndef PERFBENCH_PROCESS_H_
#define PERFBENCH_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// A spawned child process (a wdl_peerd daemon). The destructor kills
/// and reaps it, so every exit path of the benchmark — including a
/// failed check or an exception — leaves no child behind. The child
/// also gets PR_SET_PDEATHSIG, so it dies if the benchmark itself is
/// killed.
class ChildProcess {
 public:
  /// Spawns `argv` with stdout and stderr appended to `log_path`.
  /// Returns a process with pid() < 0 on failure.
  ChildProcess(const std::vector<std::string>& argv,
               const std::string& log_path);
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  pid_t pid() const { return pid_; }
  bool running() const { return pid_ > 0; }
  /// SIGTERM, then SIGKILL after `grace_ms`; reaps the child and
  /// returns its peak resident set in KiB (0 if unknown).
  long Stop(int grace_ms = 2000);

 private:
  pid_t pid_ = -1;
};

/// A directory removed (recursively) when the object goes out of scope.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }
  bool ok() const { return ok_; }

 private:
  std::string path_;
  bool ok_ = false;
};

/// Removes `<work_dir>/run-<pid>` directories whose process is gone
/// (left by a benchmark that was killed), so they cannot pile up.
void RemoveStaleRunDirs(const std::string& work_dir);
/// Runs `fn` in a forked child and returns the numbers it computed, so
/// the memory the computation takes is not part of this process's peak
/// resident set. Call it only while this process runs a single thread.
/// Returns an empty vector when the child fails.
std::vector<uint64_t> ComputeInChild(
    const std::function<std::vector<uint64_t>()>& fn);
/// Peak resident set of this process, in MiB.
double SelfPeakRssMb();
/// Filesystem type name of `path` ("tmpfs", "ext4", ...).
std::string FilesystemType(const std::string& path);
/// True when this process has no unreaped children left.
bool NoChildrenLeft();
/// Raises the soft open-file limit to the hard limit; returns the new
/// soft limit.
long RaiseOpenFileLimit();
bool FileExists(const std::string& path);
std::string ReadFile(const std::string& path);
bool WriteFile(const std::string& path, const std::string& content);

}  // namespace perfbench

#endif  // PERFBENCH_PROCESS_H_
