#include "net/framing.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "net/crc32c.hpp"
#include "util/contracts.hpp"

namespace mtg::net {

namespace {

using clock = std::chrono::steady_clock;

/// Milliseconds left before `deadline`; -1 for the no-deadline sentinel.
int remaining_ms(bool has_deadline, clock::time_point deadline) {
    if (!has_deadline) return -1;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - clock::now())
                          .count();
    return left < 0 ? 0 : static_cast<int>(left);
}

[[noreturn]] void throw_errno(const std::string& what) {
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

FrameChannel::FrameChannel(int fd) : fd_(fd) {}

FrameChannel::~FrameChannel() {
    if (fd_ >= 0) ::close(fd_);
}

FrameChannel::FrameChannel(FrameChannel&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      max_frame_bytes_(other.max_frame_bytes_),
      mid_frame_idle_ms_(other.mid_frame_idle_ms_) {}

FrameChannel& FrameChannel::operator=(FrameChannel&& other) noexcept {
    if (this != &other) {
        if (fd_ >= 0) ::close(fd_);
        fd_ = std::exchange(other.fd_, -1);
        max_frame_bytes_ = other.max_frame_bytes_;
        mid_frame_idle_ms_ = other.mid_frame_idle_ms_;
    }
    return *this;
}

void FrameChannel::set_max_frame_bytes(std::uint32_t max_bytes) {
    max_frame_bytes_ = max_bytes == 0 ? kMaxFrameBytes : max_bytes;
}

void FrameChannel::set_mid_frame_idle_ms(int idle_ms) {
    MTG_EXPECTS(idle_ms >= 0);
    mid_frame_idle_ms_ = idle_ms == 0 ? kDefaultMidFrameIdleMs : idle_ms;
}

bool FrameChannel::send(std::span<const std::uint8_t> payload) {
    if (fd_ < 0 || payload.size() > max_frame_bytes_) return false;
    std::uint8_t header[4];
    const auto length = static_cast<std::uint32_t>(payload.size());
    for (int i = 0; i < 4; ++i)
        header[i] = static_cast<std::uint8_t>(length >> (8 * i));
    std::uint8_t trailer[4];
    const std::uint32_t crc = crc32c(payload);
    for (int i = 0; i < 4; ++i)
        trailer[i] = static_cast<std::uint8_t>(crc >> (8 * i));

    const std::uint8_t* chunks[3] = {header, payload.data(), trailer};
    const std::size_t sizes[3] = {sizeof(header), payload.size(),
                                  sizeof(trailer)};
    for (int part = 0; part < 3; ++part) {
        const std::uint8_t* data = chunks[part];
        std::size_t left = sizes[part];
        while (left > 0) {
            const ssize_t wrote =
                ::send(fd_, data, left, MSG_NOSIGNAL);
            if (wrote < 0) {
                if (errno == EINTR) continue;
                return false;
            }
            data += wrote;
            left -= static_cast<std::size_t>(wrote);
        }
    }
    return true;
}

FrameChannel::IoStatus FrameChannel::read_exact(std::uint8_t* out,
                                                std::size_t n,
                                                int timeout_ms,
                                                bool started) {
    const bool has_deadline = timeout_ms >= 0;
    const auto deadline =
        clock::now() + std::chrono::milliseconds(has_deadline ? timeout_ms : 0);
    std::size_t got = 0;
    while (got < n) {
        // Once the frame has started, keep reading to completion — a
        // caller deadline mid-frame would leave the stream
        // unsynchronizable — but bound each wait by the idle-progress
        // window: a byte-dribbling peer that stops making progress wedges
        // the stream just as surely as a dead one, and used to hold the
        // receiver here forever, past any per-query deadline budget.
        // Every arriving byte restarts the window (poll waits per-byte),
        // so slow-but-advancing peers always finish.
        const int wait = started ? mid_frame_idle_ms_
                                 : remaining_ms(has_deadline, deadline);
        pollfd pfd{fd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, wait);
        if (ready < 0) {
            if (errno == EINTR) continue;
            return IoStatus::Closed;
        }
        if (ready == 0)
            return started ? IoStatus::Stalled : IoStatus::Timeout;
        const ssize_t read = ::recv(fd_, out + got, n - got, 0);
        if (read < 0) {
            if (errno == EINTR) continue;
            return IoStatus::Closed;
        }
        if (read == 0) return IoStatus::Closed;  // EOF
        got += static_cast<std::size_t>(read);
        started = true;
    }
    return IoStatus::Ok;
}

FrameChannel::RecvStatus FrameChannel::recv(std::vector<std::uint8_t>& payload,
                                            int timeout_ms) {
    if (fd_ < 0) return RecvStatus::Closed;
    std::uint8_t header[4];
    // A partial length prefix means the frame has started: from that point
    // the caller deadline no longer applies (the stream cannot resync if
    // we abandon it), but the idle-progress bound does — a peer that
    // dribbles part of a header and stalls is Corrupt, not a hang.
    std::size_t got = 0;
    const bool has_deadline = timeout_ms >= 0;
    const auto deadline =
        clock::now() + std::chrono::milliseconds(has_deadline ? timeout_ms : 0);
    while (got < sizeof(header)) {
        pollfd pfd{fd_, POLLIN, 0};
        const int wait =
            got > 0 ? mid_frame_idle_ms_ : remaining_ms(has_deadline, deadline);
        const int ready = ::poll(&pfd, 1, wait);
        if (ready < 0) {
            if (errno == EINTR) continue;
            return got > 0 ? RecvStatus::Corrupt : RecvStatus::Closed;
        }
        if (ready == 0)
            return got > 0 ? RecvStatus::Corrupt : RecvStatus::Timeout;
        const ssize_t read = ::recv(fd_, header + got, sizeof(header) - got, 0);
        if (read < 0 && errno == EINTR) continue;
        if (read <= 0)
            return got > 0 ? RecvStatus::Corrupt : RecvStatus::Closed;
        got += static_cast<std::size_t>(read);
    }
    std::uint32_t length = 0;
    for (int i = 0; i < 4; ++i)
        length |= static_cast<std::uint32_t>(header[i]) << (8 * i);
    if (length > max_frame_bytes_) return RecvStatus::Corrupt;
    payload.resize(length);
    if (length > 0) {
        switch (read_exact(payload.data(), length, /*timeout_ms=*/-1,
                           /*started=*/true)) {
            case IoStatus::Ok: break;
            case IoStatus::Timeout:  // unreachable: started reads stall,
                                     // never time out
            case IoStatus::Stalled:
            case IoStatus::Closed: return RecvStatus::Corrupt;
        }
    }
    // Trailer: CRC32C of the payload. A mismatch is Corrupt — caught
    // here, before the payload decoder ever sees the bytes.
    std::uint8_t trailer[4];
    switch (read_exact(trailer, sizeof(trailer), /*timeout_ms=*/-1,
                       /*started=*/true)) {
        case IoStatus::Ok: break;
        case IoStatus::Timeout:
        case IoStatus::Stalled:
        case IoStatus::Closed: return RecvStatus::Corrupt;
    }
    std::uint32_t wire_crc = 0;
    for (int i = 0; i < 4; ++i)
        wire_crc |= static_cast<std::uint32_t>(trailer[i]) << (8 * i);
    if (wire_crc != crc32c(payload)) return RecvStatus::Corrupt;
    return RecvStatus::Ok;
}

void FrameChannel::shutdown() {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

std::pair<int, int> socket_pair() {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
        throw_errno("socketpair");
    return {fds[0], fds[1]};
}

int tcp_listen(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        throw_errno("bind");
    }
    if (::listen(fd, 16) != 0) {
        ::close(fd);
        throw_errno("listen");
    }
    return fd;
}

void set_tcp_nodelay(int fd) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

int tcp_accept(int listen_fd) {
    for (;;) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd >= 0) {
            set_tcp_nodelay(fd);
            return fd;
        }
        if (errno != EINTR) throw_errno("accept");
    }
}

namespace {

/// One bounded non-blocking connect attempt. Returns the connected fd
/// (restored to blocking mode) or -1.
int connect_one(const addrinfo* ai, int timeout_ms) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) return -1;
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
        ::close(fd);
        return -1;
    }
    int rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
    if (rc != 0 && errno == EINTR) rc = -1, errno = EINPROGRESS;
    if (rc != 0) {
        if (errno != EINPROGRESS) {
            ::close(fd);
            return -1;
        }
        // Race the three-way handshake against the deadline: a blackholed
        // host answers nothing, so without the poll() bound this is where
        // the old implementation hung for the OS default timeout.
        pollfd pfd{fd, POLLOUT, 0};
        for (;;) {
            const int ready = ::poll(&pfd, 1, timeout_ms);
            if (ready < 0 && errno == EINTR) continue;
            if (ready <= 0) {  // timeout or poll failure
                ::close(fd);
                return -1;
            }
            break;
        }
        int err = 0;
        socklen_t len = sizeof(err);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
            err != 0) {
            ::close(fd);
            return -1;
        }
    }
    if (::fcntl(fd, F_SETFL, flags) < 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

}  // namespace

int tcp_connect(const std::string& host, std::uint16_t port,
                int timeout_ms) {
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* result = nullptr;
    const std::string service = std::to_string(port);
    const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints,
                                 &result);
    if (rc != 0)
        throw std::runtime_error("getaddrinfo " + host + ": " +
                                 gai_strerror(rc));
    int fd = -1;
    for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
        fd = connect_one(ai, timeout_ms);
        if (fd >= 0) break;
    }
    ::freeaddrinfo(result);
    if (fd < 0)
        throw std::runtime_error("connect " + host + ":" + service +
                                 " failed or timed out");
    set_tcp_nodelay(fd);
    return fd;
}

}  // namespace mtg::net
