#include "net/tcp_network.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>

#include "base/logging.h"
#include "base/string_util.h"
#include "net/wire.h"

namespace wdl {

namespace {

constexpr size_t kFramePrefixBytes = 4;

/// Reads exactly `n` bytes; false on EOF, error, or shutdown.
bool ReadFully(int fd, char* buf, size_t n) {
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r > 0) {
      got += static_cast<size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    return false;  // EOF (0) or hard error
  }
  return true;
}

bool SendFully(int fd, const char* buf, size_t n) {
  size_t sent = 0;
  while (sent < n) {
    ssize_t r = ::send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
    if (r > 0) {
      sent += static_cast<size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

void CloseFd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

TcpNetwork::TcpNetwork(TcpNetworkOptions options)
    : options_(std::move(options)) {}

TcpNetwork::~TcpNetwork() { Shutdown(); }

Status TcpNetwork::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("TcpNetwork already started");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Unavailable(StrFormat("socket: %s", strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.listen_port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    CloseFd(listen_fd_);
    return Status::InvalidArgument("bad bind address " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status st = Status::Unavailable(StrFormat(
        "bind %s:%u: %s", options_.bind_address.c_str(),
        options_.listen_port, strerror(errno)));
    CloseFd(listen_fd_);
    return st;
  }
  if (::listen(listen_fd_, 64) < 0) {
    Status st = Status::Unavailable(StrFormat("listen: %s", strerror(errno)));
    CloseFd(listen_fd_);
    return st;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void TcpNetwork::Shutdown() {
  if (stopping_.exchange(true)) return;
  // shutdown() wakes the accept() blocked on the listening socket. The
  // close waits until the accept thread has exited: that thread reads
  // listen_fd_, and a closed fd number could be reused under it.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  CloseFd(listen_fd_);

  {
    std::lock_guard<std::mutex> lk(inbound_mutex_);
    for (auto& conn : inbound_) {
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  // Join outside the lock: readers take inbound_mutex_-free paths only,
  // but keep the shape obviously deadlock-free anyway.
  std::vector<std::unique_ptr<InboundConn>> conns;
  {
    std::lock_guard<std::mutex> lk(inbound_mutex_);
    conns.swap(inbound_);
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
    CloseFd(conn->fd);
  }

  std::map<std::string, std::unique_ptr<Link>> links;
  {
    std::lock_guard<std::mutex> lk(links_mutex_);
    links.swap(links_);
  }
  for (auto& [peer, link] : links) {
    {
      std::lock_guard<std::mutex> lk(link->mutex);
      if (link->fd >= 0) ::shutdown(link->fd, SHUT_RDWR);
    }
    link->cv.notify_all();
    if (link->thread.joinable()) link->thread.join();
    std::lock_guard<std::mutex> lk(link->mutex);
    CloseFd(link->fd);
  }
}

void TcpNetwork::AddLocalPeer(const std::string& peer) {
  std::lock_guard<std::mutex> lk(links_mutex_);
  local_peers_.insert(peer);
}

void TcpNetwork::SetPeerAddress(const std::string& peer, std::string host,
                                uint16_t port) {
  std::lock_guard<std::mutex> lk(links_mutex_);
  addresses_[peer] = LinkAddress{std::move(host), port, {}};
}

void TcpNetwork::SetPeerAddressFile(const std::string& peer,
                                    std::string path) {
  std::lock_guard<std::mutex> lk(links_mutex_);
  addresses_[peer] = LinkAddress{{}, 0, std::move(path)};
}

void TcpNetwork::PushInbox(Envelope e) {
  std::lock_guard<std::mutex> lk(inbox_mutex_);
  inbox_.push_back(std::move(e));
}

void TcpNetwork::NoteReset(const std::string& peer) {
  if (stopping_) return;  // our own teardown is not a peer failure
  std::lock_guard<std::mutex> lk(resets_mutex_);
  resets_.push_back(peer);
}

TcpNetwork::Link* TcpNetwork::GetOrCreateLink(const std::string& peer) {
  std::lock_guard<std::mutex> lk(links_mutex_);
  auto it = links_.find(peer);
  if (it != links_.end()) return it->second.get();
  auto addr = addresses_.find(peer);
  if (addr == addresses_.end()) return nullptr;
  auto link = std::make_unique<Link>();
  link->peer = peer;
  link->address = addr->second;
  Link* raw = link.get();
  links_.emplace(peer, std::move(link));
  raw->thread = std::thread([this, raw] { SendLoop(raw); });
  return raw;
}

Status TcpNetwork::Submit(Envelope envelope, double /*now*/) {
  if (!started_ || stopping_) {
    return Status::FailedPrecondition("TcpNetwork is not running");
  }
  std::string bytes = EncodeEnvelope(envelope);
  {
    std::lock_guard<std::mutex> lk(stats_mutex_);
    ++stats_.messages_submitted;
  }

  bool local;
  {
    std::lock_guard<std::mutex> lk(links_mutex_);
    local = local_peers_.count(envelope.to) > 0;
  }
  if (local) {
    // Same-process peer: still round-trip the codec so byte accounting
    // and format coverage match the socket path.
    Result<Envelope> decoded = DecodeEnvelope(bytes);
    if (!decoded.ok()) {
      return Status::Internal("loopback decode failed: " +
                              decoded.status().ToString());
    }
    {
      std::lock_guard<std::mutex> lk(stats_mutex_);
      stats_.bytes_sent += bytes.size();
      ++stats_.messages_delivered;
    }
    PushInbox(std::move(decoded).value());
    return Status::OK();
  }

  Link* link = GetOrCreateLink(envelope.to);
  if (link == nullptr) {
    return Status::NotFound("no address for peer " + envelope.to);
  }
  std::string frame;
  frame.reserve(kFramePrefixBytes + bytes.size());
  uint32_t len = static_cast<uint32_t>(bytes.size());
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<char>(len >> (8 * i)));
  }
  frame += bytes;
  {
    std::lock_guard<std::mutex> lk(link->mutex);
    link->queue.push_back(std::move(frame));
  }
  link->cv.notify_one();
  return Status::OK();
}

int TcpNetwork::ConnectOnce(Link* link) {
  std::string host = link->address.host;
  uint16_t port = link->address.port;
  if (!link->address.file.empty()) {
    std::ifstream in(link->address.file);
    std::string line;
    if (!in || !std::getline(in, line)) return -1;  // not rendezvoused yet
    size_t colon = line.rfind(':');
    if (colon == std::string::npos) return -1;
    host = line.substr(0, colon);
    int p = std::atoi(line.c_str() + colon + 1);
    if (p <= 0 || p > 65535) return -1;
    port = static_cast<uint16_t>(p);
  }
  if (host.empty() || port == 0) return -1;

  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &res) != 0) {
    return -1;
  }
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd >= 0) {
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

void TcpNetwork::SendLoop(Link* link) {
  int backoff_ms = options_.connect_retry_initial_ms;
  std::unique_lock<std::mutex> lk(link->mutex);
  while (true) {
    link->cv.wait(lk, [&] { return stopping_ || !link->queue.empty(); });
    if (stopping_) break;

    if (link->fd < 0) {
      lk.unlock();
      int fd = ConnectOnce(link);  // address fields are set-once
      lk.lock();
      if (stopping_) {
        if (fd >= 0) ::close(fd);
        break;
      }
      if (fd < 0) {
        // Interruptible backoff, then try again.
        link->cv.wait_for(lk, std::chrono::milliseconds(backoff_ms),
                          [&] { return stopping_.load(); });
        backoff_ms = std::min(backoff_ms * 2, options_.connect_retry_max_ms);
        continue;
      }
      backoff_ms = options_.connect_retry_initial_ms;
      link->fd = fd;
      bool reconnect = link->ever_connected;
      link->ever_connected = true;
      {
        std::lock_guard<std::mutex> slk(stats_mutex_);
        ++tcp_stats_.connects;
        if (reconnect) ++tcp_stats_.reconnects;
      }
      // A fresh session after a live one: whatever the peer missed (or
      // forgot, if it restarted) must be re-established. The runtime
      // turns this into snapshot re-ships and resync requests.
      if (reconnect) NoteReset(link->peer);
    }

    // Send the head frame outside the lock; it stays queued (and
    // HasInFlight stays true via `sending`) until fully on the wire.
    std::string frame = link->queue.front();
    int fd = link->fd;
    link->sending = true;
    lk.unlock();
    bool ok = SendFully(fd, frame.data(), frame.size());
    lk.lock();
    link->sending = false;
    if (ok) {
      link->queue.pop_front();
      std::lock_guard<std::mutex> slk(stats_mutex_);
      stats_.bytes_sent += frame.size() - kFramePrefixBytes;
    } else {
      {
        std::lock_guard<std::mutex> slk(stats_mutex_);
        ++tcp_stats_.send_failures;
      }
      CloseFd(link->fd);
      // The frame stays at the head of the queue: it is re-sent after
      // reconnect. The receiver may see it twice (a partial write
      // followed by the retry) — the first copy arrives truncated,
      // fails to decode, and drops that connection; duplicates of the
      // full copy are absorbed by the version gate.
    }
  }
}

void TcpNetwork::AcceptLoop() {
  while (!stopping_) {
    sockaddr_in peer_addr{};
    socklen_t len = sizeof(peer_addr);
    int fd = ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer_addr),
                      &len);
    if (fd < 0) {
      if (stopping_) break;
      if (errno == EINTR) continue;
      break;  // listening socket is gone
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    {
      std::lock_guard<std::mutex> slk(stats_mutex_);
      ++tcp_stats_.connections_accepted;
    }
    auto conn = std::make_unique<InboundConn>();
    conn->fd = fd;
    InboundConn* raw = conn.get();
    std::lock_guard<std::mutex> lk(inbound_mutex_);
    // Reap finished readers so a long-lived daemon doesn't accumulate
    // one zombie thread per reconnection.
    for (auto it = inbound_.begin(); it != inbound_.end();) {
      if ((*it)->done) {
        if ((*it)->thread.joinable()) (*it)->thread.join();
        CloseFd((*it)->fd);
        it = inbound_.erase(it);
      } else {
        ++it;
      }
    }
    inbound_.push_back(std::move(conn));
    raw->thread = std::thread([this, raw] { ReadLoop(raw); });
  }
}

void TcpNetwork::ReadLoop(InboundConn* conn) {
  while (!stopping_) {
    char prefix[kFramePrefixBytes];
    if (!ReadFully(conn->fd, prefix, sizeof(prefix))) break;
    uint32_t len = 0;
    for (size_t i = 0; i < kFramePrefixBytes; ++i) {
      len |= static_cast<uint32_t>(static_cast<uint8_t>(prefix[i]))
             << (8 * i);
    }
    if (len == 0 || len > options_.max_frame_bytes) {
      // Reject before allocating anything sized by the hostile length.
      std::lock_guard<std::mutex> slk(stats_mutex_);
      ++tcp_stats_.oversized_frames;
      break;
    }
    std::string payload(len, '\0');
    if (!ReadFully(conn->fd, payload.data(), len)) break;
    Result<Envelope> decoded = DecodeEnvelope(payload);
    if (!decoded.ok()) {
      // A frame that does not decode means the stream is corrupt or
      // hostile; there is no way to re-synchronize mid-stream, so drop
      // the connection. Nothing of the frame reached the engine, and
      // the sender's reconnect triggers the resync path.
      WDL_LOG(Warning) << "tcp frame decode failed, dropping connection: "
                       << decoded.status();
      std::lock_guard<std::mutex> slk(stats_mutex_);
      ++tcp_stats_.decode_failures;
      break;
    }
    conn->senders.insert(decoded.value().from);
    {
      std::lock_guard<std::mutex> slk(stats_mutex_);
      ++tcp_stats_.frames_received;
      ++stats_.messages_delivered;
    }
    PushInbox(std::move(decoded).value());
  }
  ::shutdown(conn->fd, SHUT_RDWR);
  // The peers behind a dead inbound connection may have crashed (their
  // next frames are lost until they reconnect): treat it as a link
  // reset so the runtime re-requests their streams.
  for (const std::string& sender : conn->senders) NoteReset(sender);
  conn->done = true;
}

std::vector<Envelope> TcpNetwork::DeliverDue(double /*now*/) {
  std::vector<Envelope> out;
  std::lock_guard<std::mutex> lk(inbox_mutex_);
  out.swap(inbox_);
  return out;
}

bool TcpNetwork::HasInFlight() const {
  {
    std::lock_guard<std::mutex> lk(inbox_mutex_);
    if (!inbox_.empty()) return true;
  }
  std::lock_guard<std::mutex> lk(links_mutex_);
  for (const auto& [peer, link] : links_) {
    std::lock_guard<std::mutex> llk(link->mutex);
    if (!link->queue.empty() || link->sending) return true;
  }
  return false;
}

NetworkStats TcpNetwork::StatsSnapshot() const {
  std::lock_guard<std::mutex> lk(stats_mutex_);
  return stats_;
}

TcpTransportStats TcpNetwork::TcpStatsSnapshot() const {
  std::lock_guard<std::mutex> lk(stats_mutex_);
  return tcp_stats_;
}

std::vector<std::string> TcpNetwork::TakePeerResets() {
  std::vector<std::string> taken;
  {
    std::lock_guard<std::mutex> lk(resets_mutex_);
    taken.swap(resets_);
  }
  // Dedupe, preserving first-seen order.
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (std::string& peer : taken) {
    if (seen.insert(peer).second) out.push_back(std::move(peer));
  }
  return out;
}

}  // namespace wdl
