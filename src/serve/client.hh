/**
 * @file
 * A small blocking TCP client for the prediction service — used by
 * `pccs client`, the protocol tests, and the throughput bench.
 */

#ifndef PCCS_SERVE_CLIENT_HH
#define PCCS_SERVE_CLIENT_HH

#include <cstdint>
#include <optional>
#include <string>

#include "serve/json.hh"

namespace pccs::serve {

/** One connection to a serve daemon; newline-delimited JSON. */
class TcpClient
{
  public:
    TcpClient() = default;
    ~TcpClient();

    TcpClient(const TcpClient &) = delete;
    TcpClient &operator=(const TcpClient &) = delete;
    TcpClient(TcpClient &&other) noexcept
        : fd_(other.fd_), inbuf_(std::move(other.inbuf_)),
          inpos_(other.inpos_)
    {
        other.fd_ = -1;
        other.inpos_ = 0;
    }
    TcpClient &operator=(TcpClient &&other) noexcept
    {
        if (this != &other) {
            close();
            fd_ = other.fd_;
            inbuf_ = std::move(other.inbuf_);
            inpos_ = other.inpos_;
            other.fd_ = -1;
            other.inpos_ = 0;
        }
        return *this;
    }

    /**
     * Connect to host:port.
     * @return true on success; else false with a diagnostic in *error
     */
    bool connectTo(const std::string &host, std::uint16_t port,
                   std::string *error = nullptr);

    bool connected() const { return fd_ >= 0; }
    void close();

    /** Send one raw line (the newline is appended). */
    bool sendLine(const std::string &line);

    /** Send raw bytes exactly as given — no newline appended. Lets
     *  tests fragment frames across arbitrary write boundaries. */
    bool sendRaw(const char *data, std::size_t n);

    /** The underlying socket (tests tune sockopts); -1 if closed. */
    int fd() const { return fd_; }

    /** @return the next response line, or nullopt on EOF/error. */
    std::optional<std::string> recvLine();

    /**
     * Round-trip one request: send, then read one response line and
     * parse it. Returns an `ok:false` object with a local "error"
     * field when the transport or the response parse fails.
     */
    Json request(const Json &message);

  private:
    int fd_ = -1;
    std::string inbuf_;
    /** Bytes of inbuf_ already returned as lines. */
    std::size_t inpos_ = 0;
};

} // namespace pccs::serve

#endif // PCCS_SERVE_CLIENT_HH
