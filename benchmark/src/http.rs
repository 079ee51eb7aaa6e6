//! A keep-alive HTTP/1.1 client: one connection, many requests, with
//! the timestamps the per-layer table needs.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A request that takes longer than this is a failed operation, not a
/// hung benchmark.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Reply {
    pub status: u16,
    /// The `X-Model-Version` header, when the server sent one.
    pub version: Option<String>,
    pub body: String,
    /// Request fully written → first response byte.
    pub wait: Duration,
    /// Request start → response fully read.
    pub total: Duration,
}

pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(64 << 10),
        })
    }

    pub fn post(&mut self, path: &str, body: &str) -> io::Result<Reply> {
        let head = format!(
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            body.len()
        );
        self.exchange(&[head.as_bytes(), body.as_bytes()])
    }

    pub fn get(&mut self, path: &str) -> io::Result<Reply> {
        let head = format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n");
        self.exchange(&[head.as_bytes()])
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 << 10];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("server closed the connection mid-response"));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn exchange(&mut self, parts: &[&[u8]]) -> io::Result<Reply> {
        let started = Instant::now();
        for part in parts {
            self.stream.write_all(part)?;
        }
        let written = Instant::now();
        let mut first_byte = None;
        let header_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            self.fill()?;
            first_byte.get_or_insert_with(Instant::now);
        };
        let head = String::from_utf8_lossy(&self.buf[..header_end]).into_owned();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("response without a status code"))?;
        let header = |name: &str| {
            head.lines().find_map(|line| {
                let (key, value) = line.split_once(':')?;
                key.trim()
                    .eq_ignore_ascii_case(name)
                    .then(|| value.trim().to_string())
            })
        };
        let length: usize = header("content-length")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("response without Content-Length"))?;
        while self.buf.len() < header_end + length {
            self.fill()?;
        }
        let body = String::from_utf8_lossy(&self.buf[header_end..header_end + length]).into_owned();
        self.buf.drain(..header_end + length);
        let done = Instant::now();
        Ok(Reply {
            status,
            version: header("x-model-version"),
            body,
            wait: first_byte.unwrap_or(done).duration_since(written),
            total: done.duration_since(started),
        })
    }
}
