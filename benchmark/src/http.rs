//! A minimal blocking HTTP/1.1 client: one connection per request, as the
//! server answers every request with `Connection: close`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest a request may take before it counts as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Response body.
    pub body: String,
}

/// Sends one request and reads the whole response.
///
/// # Errors
///
/// Any socket error, or `InvalidData` for a response without a status line.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    stream.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    parse_reply(&raw).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("malformed response: {:?}", raw.get(..80).unwrap_or(&raw)),
        )
    })
}

/// Splits a raw response into status and body.
pub fn parse_reply(raw: &str) -> Option<Reply> {
    let status = raw.split_whitespace().nth(1)?.parse().ok()?;
    let body = raw.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    Some(Reply {
        status,
        body: body.to_string(),
    })
}
