//! Minimal HTTP/1.1 framing with strict size and time limits.
//!
//! Enough of HTTP for a JSON model-query service and nothing more:
//! request line + headers + `Content-Length` bodies in, fixed-header
//! responses out. Every read is bounded three ways — a per-line byte
//! cap shared across the whole head, a declared-body cap, and an
//! overall wall-clock deadline checked between reads (the socket's own
//! read timeout guarantees the check runs) — so a slow-loris client
//! costs one worker at most roughly the configured read window, never a
//! hang.

use std::io::{BufRead, Read, Write};
use std::time::Instant;

/// Size caps for one request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes for the request line plus all headers.
    pub max_head_bytes: usize,
    /// Maximum bytes for a declared `Content-Length` body.
    pub max_body_bytes: usize,
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The HTTP method token, uppercased (`GET`, `POST`, ...).
    pub method: String,
    /// The request target, e.g. `/solve`.
    pub path: String,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

/// Why a request could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// The client went quiet past the read window (slow-loris).
    Timeout,
    /// The client disconnected mid-request.
    Disconnected,
    /// The head exceeded [`Limits::max_head_bytes`].
    HeadTooLarge,
    /// The declared body exceeds [`Limits::max_body_bytes`].
    BodyTooLarge {
        /// The `Content-Length` the client declared.
        declared: u64,
    },
    /// The bytes were not valid HTTP.
    Malformed(String),
    /// Any other socket error.
    Io(String),
}

fn io_error(e: std::io::Error) -> ReadError {
    use std::io::ErrorKind;
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => ReadError::Timeout,
        ErrorKind::UnexpectedEof | ErrorKind::ConnectionReset | ErrorKind::BrokenPipe => {
            ReadError::Disconnected
        }
        _ => ReadError::Io(e.to_string()),
    }
}

/// Reads one head line (request line or header), consuming at most
/// `budget + 1` bytes. `Ok(None)` is end of stream before any byte.
fn read_head_line<R: BufRead>(reader: &mut R, budget: usize) -> Result<Option<String>, ReadError> {
    let mut buf = Vec::new();
    let n = reader
        .by_ref()
        .take(budget as u64 + 1)
        .read_until(b'\n', &mut buf)
        .map_err(io_error)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() != Some(&b'\n') {
        return Err(if buf.len() > budget {
            ReadError::HeadTooLarge
        } else {
            ReadError::Disconnected
        });
    }
    while matches!(buf.last(), Some(b'\n' | b'\r')) {
        buf.pop();
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| ReadError::Malformed("head is not UTF-8".into()))
}

/// Reads one request. `Ok(None)` means the client closed the connection
/// cleanly at a request boundary (the normal end of keep-alive).
/// `deadline` bounds the whole read; it needs a socket-level read
/// timeout underneath to guarantee the checks run.
///
/// # Errors
///
/// See [`ReadError`]; the caller maps each variant onto a response (or
/// a silent close for [`ReadError::Disconnected`]).
pub fn read_request<R: BufRead>(
    reader: &mut R,
    limits: &Limits,
    deadline: Option<Instant>,
) -> Result<Option<Request>, ReadError> {
    let overdue = |now: Instant| deadline.is_some_and(|d| now > d);
    let mut head_budget = limits.max_head_bytes;
    let request_line = match read_head_line(reader, head_budget)? {
        None => return Ok(None),
        Some(line) => line,
    };
    head_budget = head_budget.saturating_sub(request_line.len() + 2);
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => (m, p, v),
        _ => {
            return Err(ReadError::Malformed(format!(
                "bad request line '{request_line}'"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ReadError::Malformed(format!(
            "unsupported version '{version}'"
        )));
    }
    let mut keep_alive = version == "HTTP/1.1";
    let mut content_length: u64 = 0;
    loop {
        if overdue(Instant::now()) {
            return Err(ReadError::Timeout);
        }
        let line = match read_head_line(reader, head_budget)? {
            None => return Err(ReadError::Disconnected),
            Some(line) => line,
        };
        if line.is_empty() {
            break;
        }
        head_budget = head_budget.saturating_sub(line.len() + 2);
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ReadError::Malformed(format!("bad header '{line}'")))?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                content_length = value
                    .parse()
                    .map_err(|_| ReadError::Malformed(format!("bad content-length '{value}'")))?;
            }
            "transfer-encoding" => {
                return Err(ReadError::Malformed(
                    "transfer-encoding is not supported; send content-length".into(),
                ));
            }
            "connection" => {
                let v = value.to_ascii_lowercase();
                if v.contains("close") {
                    keep_alive = false;
                } else if v.contains("keep-alive") {
                    keep_alive = true;
                }
            }
            _ => {}
        }
    }
    if content_length > limits.max_body_bytes as u64 {
        return Err(ReadError::BodyTooLarge {
            declared: content_length,
        });
    }
    let mut body = vec![0u8; content_length as usize];
    let mut filled = 0;
    while filled < body.len() {
        if overdue(Instant::now()) {
            return Err(ReadError::Timeout);
        }
        match reader.read(&mut body[filled..]) {
            Ok(0) => return Err(ReadError::Disconnected),
            Ok(n) => filled += n,
            Err(e) => return Err(io_error(e)),
        }
    }
    Ok(Some(Request {
        method: method.to_ascii_uppercase(),
        path: path.to_string(),
        keep_alive,
        body,
    }))
}

/// One response to write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// JSON body.
    pub body: String,
    /// Value of the `x-bandwall-cache` header, when the endpoint is
    /// memoizable (`"hit"` / `"miss"`). Kept out of the body so cached
    /// and uncached replies stay byte-identical where it counts.
    pub cache: Option<&'static str>,
    /// Whether the server will close the connection after this reply.
    pub close: bool,
}

impl Response {
    /// A `200 OK` JSON response.
    pub fn ok(body: String) -> Self {
        Response {
            status: 200,
            body,
            cache: None,
            close: false,
        }
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Unknown",
        }
    }

    /// Serialises status line, headers, and body into `out`, clearing it
    /// first. Workers reuse one buffer across a connection's keep-alive
    /// lifetime, so the hot path allocates nothing once the buffer has
    /// grown to the working-set response size.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            self.reason(),
            self.body.len(),
            if self.close { "close" } else { "keep-alive" },
        );
        if let Some(cache) = self.cache {
            let _ = write!(out, "x-bandwall-cache: {cache}\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(self.body.as_bytes());
    }

    /// Serialises status line, headers, and body into one fresh buffer
    /// (a single `write_all`, so a response is never interleaved).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(128 + self.body.len());
        self.encode_into(&mut bytes);
        bytes
    }

    /// Writes the response in one `write_all` + flush, serialising
    /// through the caller's reusable buffer.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (the caller treats them as a dead
    /// client and closes).
    pub fn write_buffered<W: Write>(
        &self,
        writer: &mut W,
        buffer: &mut Vec<u8>,
    ) -> std::io::Result<()> {
        self.encode_into(buffer);
        writer.write_all(buffer)?;
        writer.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn limits() -> Limits {
        Limits {
            max_head_bytes: 1024,
            max_body_bytes: 4096,
        }
    }

    fn read(input: &str) -> Result<Option<Request>, ReadError> {
        let mut reader = BufReader::new(input.as_bytes());
        read_request(&mut reader, &limits(), None)
    }

    #[test]
    fn parses_post_with_body_and_keep_alive() {
        let req = read("POST /solve HTTP/1.1\r\ncontent-length: 4\r\n\r\n{{}}")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/solve");
        assert!(req.keep_alive);
        assert_eq!(req.body, b"{{}}");
    }

    #[test]
    fn connection_close_and_http10_default() {
        let req = read("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive);
        let req = read("GET /healthz HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn clean_eof_is_none_but_midway_eof_is_disconnected() {
        assert_eq!(read("").unwrap(), None);
        assert_eq!(
            read("POST /solve HTTP/1.1\r\ncontent-le"),
            Err(ReadError::Disconnected)
        );
        assert_eq!(
            read("POST /solve HTTP/1.1\r\ncontent-length: 10\r\n\r\n{}"),
            Err(ReadError::Disconnected),
            "body shorter than declared"
        );
    }

    #[test]
    fn rejects_malformed_heads() {
        for (input, what) in [
            ("SOLVE\r\n\r\n", "one-token request line"),
            ("GET /x HTTP/1.1 extra\r\n\r\n", "four-token request line"),
            ("GET /x HTTP/2\r\n\r\n", "unsupported version"),
            ("GET /x HTTP/1.1\r\nno-colon-header\r\n\r\n", "bad header"),
            (
                "POST /x HTTP/1.1\r\ncontent-length: nope\r\n\r\n",
                "bad content-length",
            ),
            (
                "POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
                "chunked",
            ),
        ] {
            assert!(
                matches!(read(input), Err(ReadError::Malformed(_))),
                "{what}"
            );
        }
    }

    #[test]
    fn enforces_head_and_body_limits() {
        let huge_header = format!("GET /x HTTP/1.1\r\nx-big: {}\r\n\r\n", "a".repeat(2048));
        assert_eq!(read(&huge_header), Err(ReadError::HeadTooLarge));
        let huge_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(2048));
        assert_eq!(read(&huge_line), Err(ReadError::HeadTooLarge));
        assert_eq!(
            read("POST /x HTTP/1.1\r\ncontent-length: 5000\r\n\r\n"),
            Err(ReadError::BodyTooLarge { declared: 5000 })
        );
    }

    #[test]
    fn response_bytes_are_complete_and_ordered() {
        let r = Response {
            status: 503,
            body: "{\"status\":\"error\"}".into(),
            cache: None,
            close: true,
        };
        let text = String::from_utf8(r.to_bytes()).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("content-length: 18\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"status\":\"error\"}"));

        let hit = Response {
            cache: Some("hit"),
            ..Response::ok("{}".into())
        };
        assert!(String::from_utf8(hit.to_bytes())
            .unwrap()
            .contains("x-bandwall-cache: hit\r\n"));
    }

    #[test]
    fn encode_into_reuses_the_buffer_and_matches_to_bytes() {
        let mut buffer = b"stale bytes from the previous response".to_vec();
        let r = Response::ok("{\"status\":\"ok\"}".into());
        r.encode_into(&mut buffer);
        assert_eq!(buffer, r.to_bytes());
        let tiny = Response::ok("{}".into());
        tiny.encode_into(&mut buffer);
        assert_eq!(buffer, tiny.to_bytes(), "clears before encoding");
    }

    #[test]
    fn deadline_in_the_past_times_out() {
        let mut reader =
            BufReader::new("POST /solve HTTP/1.1\r\ncontent-length: 2\r\n\r\n{}".as_bytes());
        let past = Instant::now() - std::time::Duration::from_secs(1);
        assert_eq!(
            read_request(&mut reader, &limits(), Some(past)),
            Err(ReadError::Timeout)
        );
    }
}
