#include "process.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

ChildProcess::ChildProcess(const std::vector<std::string>& argv,
                           const std::string& log_path) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t parent = getpid();
  pid_t pid = fork();
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    int fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      dup2(fd, STDOUT_FILENO);
      dup2(fd, STDERR_FILENO);
      close(fd);
    }
    execv(args[0], args.data());
    _exit(127);
  }
  pid_ = pid;
}

ChildProcess::~ChildProcess() {
  if (pid_ > 0) Stop(0);
}

long ChildProcess::Stop(int grace_ms) {
  if (pid_ <= 0) return 0;
  struct rusage usage {};
  int status = 0;
  if (grace_ms > 0) {
    kill(pid_, SIGTERM);
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(grace_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      pid_t r = wait4(pid_, &status, WNOHANG, &usage);
      if (r == pid_ || (r < 0 && errno == ECHILD)) {
        pid_ = -1;
        return usage.ru_maxrss;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  kill(pid_, SIGKILL);
  while (wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  return usage.ru_maxrss;
}

ScratchDir::ScratchDir(std::string path) : path_(std::move(path)) {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  ok_ = std::filesystem::create_directories(path_, ec) && !ec;
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

void RemoveStaleRunDirs(const std::string& work_dir) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(work_dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("run-", 0) != 0) continue;
    pid_t pid = static_cast<pid_t>(std::atol(name.c_str() + 4));
    if (pid > 0 && kill(pid, 0) != 0 && errno == ESRCH) {
      std::filesystem::remove_all(entry.path(), ec);
    }
  }
}

std::vector<uint64_t> ComputeInChild(
    const std::function<std::vector<uint64_t>()>& fn) {
  int fds[2];
  if (pipe(fds) != 0) return {};
  pid_t parent = getpid();
  pid_t pid = fork();
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(1);
    close(fds[0]);
    std::vector<uint64_t> out = fn();
    const char* p = reinterpret_cast<const char*>(out.data());
    size_t left = out.size() * sizeof(uint64_t);
    while (left > 0) {
      ssize_t n = write(fds[1], p, left);
      if (n <= 0) _exit(1);
      p += n;
      left -= static_cast<size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string bytes;
  char buf[256];
  ssize_t n;
  while (pid > 0 && (n = read(fds[0], buf, sizeof(buf))) != 0) {
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) break;
    bytes.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  if (pid < 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0 || bytes.size() % sizeof(uint64_t) != 0) {
    return {};
  }
  std::vector<uint64_t> out(bytes.size() / sizeof(uint64_t));
  std::memcpy(out.data(), bytes.data(), bytes.size());
  return out;
}

double SelfPeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string FilesystemType(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x794C7630UL: return "overlay";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

bool NoChildrenLeft() {
  int status = 0;
  return waitpid(-1, &status, WNOHANG) < 0 && errno == ECHILD;
}

long RaiseOpenFileLimit() {
  struct rlimit rl {};
  if (getrlimit(RLIMIT_NOFILE, &rl) != 0) return -1;
  if (rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = rl.rlim_max;
    setrlimit(RLIMIT_NOFILE, &rl);
    getrlimit(RLIMIT_NOFILE, &rl);
  }
  return static_cast<long>(rl.rlim_cur);
}

bool FileExists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  out << content;
  return static_cast<bool>(out.flush());
}

}  // namespace perfbench
