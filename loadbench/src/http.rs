//! A minimal HTTP/1.1 client for the campaign server: one request per
//! connection (the server answers `Connection: close`), fixed-length and
//! chunked bodies.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest wait for any read or write; a `/summary` blocks until its
/// campaign finishes, which takes well under a second here.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A complete response.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body (de-chunked).
    pub body: String,
}

fn send(
    addr: SocketAddr,
    method: &str,
    path: &str,
    client: &str,
    body: &str,
) -> std::io::Result<BufReader<TcpStream>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    // A hung server fails the run instead of stalling it.
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nX-Client: {client}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    Ok(BufReader::new(stream))
}

fn bad(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

/// Reads the status line and headers: (status, content length, chunked).
fn read_head(reader: &mut BufReader<TcpStream>) -> std::io::Result<(u16, Option<usize>, bool)> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line `{}`", line.trim_end())))?;
    let mut length = None;
    let mut chunked = false;
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim();
            if name == "content-length" {
                length = value.parse().ok();
            } else if name == "transfer-encoding" && value.eq_ignore_ascii_case("chunked") {
                chunked = true;
            }
        }
    }
    Ok((status, length, chunked))
}

/// Reads one chunk; `None` at the terminating zero-size chunk.
fn read_chunk(reader: &mut BufReader<TcpStream>) -> std::io::Result<Option<String>> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let size = usize::from_str_radix(line.trim(), 16)
        .map_err(|_| bad(format!("bad chunk size `{}`", line.trim())))?;
    let mut data = vec![0u8; size + 2];
    reader.read_exact(&mut data)?;
    if size == 0 {
        return Ok(None);
    }
    data.truncate(size);
    String::from_utf8(data).map(Some).map_err(|_| bad("chunk is not UTF-8".to_string()))
}

/// One request with a fixed-length (or read-to-close) response body.
///
/// # Errors
///
/// Connection and protocol errors.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    client: &str,
    body: &str,
) -> std::io::Result<Response> {
    let mut reader = send(addr, method, path, client, body)?;
    let (status, length, chunked) = read_head(&mut reader)?;
    let mut body = String::new();
    if chunked {
        while let Some(chunk) = read_chunk(&mut reader)? {
            body.push_str(&chunk);
        }
    } else if let Some(length) = length {
        let mut bytes = vec![0u8; length];
        reader.read_exact(&mut bytes)?;
        body = String::from_utf8(bytes).map_err(|_| bad("body is not UTF-8".to_string()))?;
    } else {
        reader.read_to_string(&mut body)?;
    }
    Ok(Response { status, body })
}

/// A streamed JSONL response: its rows and when the first one arrived.
#[derive(Debug)]
pub struct Streamed {
    /// Status code.
    pub status: u16,
    /// Rows in arrival order (without their newlines).
    pub rows: Vec<String>,
    /// Arrival of the first row, if any.
    pub first_row: Option<Instant>,
}

/// A `GET` of a chunked JSONL stream, recording the first row's arrival.
///
/// # Errors
///
/// Connection and protocol errors.
pub fn stream_rows(addr: SocketAddr, path: &str, client: &str) -> std::io::Result<Streamed> {
    let mut reader = send(addr, "GET", path, client, "")?;
    let (status, _, chunked) = read_head(&mut reader)?;
    let mut rows = Vec::new();
    let mut first_row = None;
    if chunked {
        while let Some(chunk) = read_chunk(&mut reader)? {
            first_row.get_or_insert_with(Instant::now);
            rows.extend(chunk.lines().filter(|l| !l.is_empty()).map(str::to_string));
        }
    } else {
        let mut body = String::new();
        reader.read_to_string(&mut body)?;
    }
    Ok(Streamed { status, rows, first_row })
}

/// The raw text of a top-level JSON field of a flat object (`"key": v`),
/// with string quotes stripped. Enough for the server's fixed-shape
/// replies; not a general JSON parser.
#[must_use]
pub fn json_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = body.find(&needle)? + needle.len();
    let rest = body[start..].trim_start();
    if let Some(quoted) = rest.strip_prefix('"') {
        return quoted.find('"').map(|end| &quoted[..end]);
    }
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}
