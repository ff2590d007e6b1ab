#include "client.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace pccs::serve {

namespace {

Json
localError(const std::string &message)
{
    Json out = Json::object();
    out.set("ok", Json(false));
    out.set("error", Json(message));
    return out;
}

} // namespace

TcpClient::~TcpClient()
{
    close();
}

bool
TcpClient::connectTo(const std::string &host, std::uint16_t port,
                     std::string *error)
{
    close();

    auto failWith = [&](const std::string &message) {
        if (error != nullptr)
            *error = message + ": " + std::strerror(errno);
        close();
        return false;
    };

    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0)
        return failWith("cannot create socket");

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        errno = EINVAL;
        return failWith("bad address '" + host + "'");
    }
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        return failWith("cannot connect to " + host + ":" +
                        std::to_string(port));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
}

void
TcpClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    inbuf_.clear();
    inpos_ = 0;
}

bool
TcpClient::sendLine(const std::string &line)
{
    std::string wire = line;
    wire += '\n';
    return sendRaw(wire.data(), wire.size());
}

bool
TcpClient::sendRaw(const char *data, std::size_t n)
{
    if (fd_ < 0)
        return false;
    while (n > 0) {
        const ssize_t sent = ::send(fd_, data, n, MSG_NOSIGNAL);
        if (sent < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += sent;
        n -= static_cast<std::size_t>(sent);
    }
    return true;
}

std::optional<std::string>
TcpClient::recvLine()
{
    if (fd_ < 0)
        return std::nullopt;
    for (;;) {
        const std::size_t eol = inbuf_.find('\n', inpos_);
        if (eol != std::string::npos) {
            std::string line = inbuf_.substr(inpos_, eol - inpos_);
            inpos_ = eol + 1;
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            return line;
        }
        // Drop the returned lines once per recv, not once per line.
        inbuf_.erase(0, inpos_);
        inpos_ = 0;
        char buf[16 * 1024];
        const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
        if (n == 0)
            return std::nullopt;
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return std::nullopt;
        }
        inbuf_.append(buf, static_cast<std::size_t>(n));
    }
}

Json
TcpClient::request(const Json &message)
{
    if (!sendLine(message.dump()))
        return localError("send failed (connection lost?)");
    const std::optional<std::string> line = recvLine();
    if (!line.has_value())
        return localError("connection closed before a response");
    const JsonParse parsed = parseJson(*line);
    if (!parsed.ok())
        return localError("unparseable response: " + parsed.error);
    return *parsed.value;
}

} // namespace pccs::serve
