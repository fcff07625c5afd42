//! Transport loops: newline-delimited JSON over stdio and TCP.
//!
//! Both loops share one [`ServeState`]; any mix of stdio and TCP
//! clients can ingest and query concurrently. A `shutdown` request (or
//! stdin EOF) flips the shared flag; every loop notices within one
//! poll interval and drains out, so the process exits cleanly with all
//! replies flushed.
//!
//! Neither loop buffers more than [`MAX_LINE_BYTES`] of one request: a
//! longer line gets a `limit` error reply and its remaining bytes are
//! discarded through the next newline, so a client that never sends
//! `\n` cannot grow server memory.

use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration as StdDuration;

use crate::state::ServeState;

/// How often blocked readers and the acceptor re-check the shutdown
/// flag.
const POLL_INTERVAL: StdDuration = StdDuration::from_millis(50);

/// The longest request line either loop buffers, newline excluded.
/// Every protocol request fits in well under 1 KiB.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// What one [`read_frame`] call produced.
enum Frame {
    /// A complete line (newline excluded) is in the buffer.
    Line,
    /// The line outgrew [`MAX_LINE_BYTES`]; the buffer was cleared.
    TooLong,
    /// End of input with nothing buffered.
    Eof,
}

/// Reads up to the next `\n` into `buf`, never holding more than
/// [`MAX_LINE_BYTES`]. On overflow the buffered part is dropped and
/// `discarding` is set until the rest of the line has been consumed.
/// Both carry over between calls, so a read that times out mid-line
/// resumes where it stopped; a final line without a newline is
/// returned at EOF.
fn read_frame<R: BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    discarding: &mut bool,
) -> io::Result<Frame> {
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok(if buf.is_empty() {
                Frame::Eof
            } else {
                Frame::Line
            });
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let body = newline.unwrap_or(chunk.len());
        let taken = newline.map_or(body, |i| i + 1);
        if *discarding {
            reader.consume(taken);
            *discarding = newline.is_none();
            continue;
        }
        if buf.len() + body > MAX_LINE_BYTES {
            buf.clear();
            reader.consume(taken);
            *discarding = newline.is_none();
            return Ok(Frame::TooLong);
        }
        buf.extend_from_slice(&chunk[..body]);
        reader.consume(taken);
        if newline.is_some() {
            return Ok(Frame::Line);
        }
    }
}

/// The reply for one frame, or `None` for a blank line.
fn answer(state: &ServeState, frame: &Frame, buf: &[u8]) -> io::Result<Option<String>> {
    if matches!(frame, Frame::TooLong) {
        return Ok(Some(state.reject_oversized()));
    }
    let line = std::str::from_utf8(buf).map_err(|e| io::Error::new(ErrorKind::InvalidData, e))?;
    if line.trim().is_empty() {
        return Ok(None);
    }
    Ok(Some(state.handle(line.trim_end())))
}

/// Serves requests line-by-line from `reader`, writing one reply line
/// each to `writer`. Returns after a `shutdown` request or EOF; EOF
/// also requests global shutdown so companion TCP loops drain.
///
/// # Errors
///
/// Propagates I/O errors from the reader or writer.
pub fn serve_stdio<R: BufRead, W: Write>(
    state: &ServeState,
    mut reader: R,
    mut writer: W,
) -> io::Result<()> {
    let mut buf = Vec::new();
    let mut discarding = false;
    loop {
        let frame = read_frame(&mut reader, &mut buf, &mut discarding)?;
        if matches!(frame, Frame::Eof) {
            break;
        }
        let reply = answer(state, &frame, &buf)?;
        buf.clear();
        let Some(reply) = reply else { continue };
        writer.write_all(reply.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if state.is_shutdown() {
            return Ok(());
        }
    }
    state.request_shutdown();
    Ok(())
}

/// Accepts TCP connections on `listener` until shutdown, serving each
/// on its own thread against the shared state. Connection threads are
/// scoped: the call returns only after every client has drained.
///
/// # Errors
///
/// Propagates listener configuration errors; per-connection errors
/// only end that connection.
pub fn serve_tcp(state: &ServeState, listener: &TcpListener) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    std::thread::scope(|scope| -> io::Result<()> {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    scope.spawn(move || {
                        // A failed client connection only ends that
                        // client; the server keeps accepting.
                        let _ = serve_connection(state, stream);
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if state.is_shutdown() {
                        return Ok(());
                    }
                    std::thread::sleep(POLL_INTERVAL);
                }
                Err(e) => return Err(e),
            }
        }
    })
}

/// Serves one TCP client. Read timeouts poll the shutdown flag so the
/// connection drains promptly when another client stops the server.
fn serve_connection(state: &ServeState, stream: TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    let mut discarding = false;
    loop {
        // On timeout, any partial line already read stays in `buf` and
        // the next pass appends to it — no bytes are lost.
        match read_frame(&mut reader, &mut buf, &mut discarding) {
            Ok(Frame::Eof) => return Ok(()),
            Ok(frame) => {
                let reply = answer(state, &frame, &buf)?;
                buf.clear();
                if let Some(reply) = reply {
                    writer.write_all(reply.as_bytes())?;
                    writer.write_all(b"\n")?;
                    writer.flush()?;
                }
                if state.is_shutdown() {
                    return Ok(());
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if state.is_shutdown() {
                    return Ok(());
                }
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_core::{Duration, SimConfig, Simulation};
    use std::io::Cursor;

    fn state() -> ServeState {
        let sim = Simulation::new(SimConfig::with_seed(7));
        ServeState::new(sim, Duration::from_hours(6)).expect("positive step")
    }

    #[test]
    fn stdio_session_replies_per_line_and_stops_on_shutdown() {
        let s = state();
        let input = "\
{\"cmd\":\"ingest\",\"steps\":8,\"id\":1}\n\
\n\
{\"cmd\":\"status\",\"id\":2}\n\
{\"cmd\":\"shutdown\",\"id\":3}\n\
{\"cmd\":\"status\",\"id\":4}\n";
        let mut out = Vec::new();
        serve_stdio(&s, Cursor::new(input), &mut out).expect("io");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        // The blank line is skipped; the post-shutdown request is never
        // read.
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].contains("\"ingested\":8"));
        assert!(lines[1].contains("\"steps_ingested\":8"));
        assert!(lines[2].contains("\"shutting_down\":true"));
        assert!(s.is_shutdown());
    }

    #[test]
    fn oversized_line_gets_one_limit_reply_then_serving_resumes() {
        let s = state();
        let mut input = vec![b'x'; 1 << 20];
        input.extend_from_slice(b"\n{\"cmd\":\"status\",\"id\":2}\n");
        let mut out = Vec::new();
        serve_stdio(&s, Cursor::new(input), &mut out).expect("io");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains("\"ok\":false"), "{text}");
        assert!(lines[0].contains("\"kind\":\"limit\""), "{text}");
        assert!(lines[1].contains("\"ok\":true"), "{text}");
        assert!(lines[1].contains("\"id\":2"), "{text}");
        assert!(lines[1].contains("\"steps_ingested\":0"), "{text}");
    }

    #[test]
    fn line_at_the_cap_is_served_and_unterminated_overflow_is_bounded() {
        // A line of exactly MAX_LINE_BYTES is still a request (here an
        // unparseable one, so a usage error, not a limit error).
        let s = state();
        let mut input = vec![b' '; MAX_LINE_BYTES - 1];
        input.push(b'x');
        input.push(b'\n');
        // An overflowing line with no newline at all: one limit reply,
        // then EOF.
        input.extend(std::iter::repeat_n(b'y', MAX_LINE_BYTES + 1));
        let mut out = Vec::new();
        serve_stdio(&s, Cursor::new(input), &mut out).expect("io");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains("\"kind\":\"usage\""), "{text}");
        assert!(lines[1].contains("\"kind\":\"limit\""), "{text}");
        assert!(s.is_shutdown(), "EOF still stops companion loops");
    }

    #[test]
    fn stdio_eof_requests_shutdown() {
        let s = state();
        let mut out = Vec::new();
        serve_stdio(&s, Cursor::new("{\"cmd\":\"status\"}\n"), &mut out).expect("io");
        assert!(s.is_shutdown(), "EOF must stop companion loops");
    }

    #[test]
    fn tcp_round_trip_and_shutdown() {
        use std::io::{BufRead as _, Write as _};
        use std::net::TcpListener;

        let s = state();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("addr");
        std::thread::scope(|scope| {
            let server = scope.spawn(|| serve_tcp(&s, &listener));
            let stream = TcpStream::connect(addr).expect("connect");
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = BufReader::new(stream);
            let mut reply = String::new();

            writer
                .write_all(b"{\"cmd\":\"ingest\",\"steps\":4,\"id\":1}\n")
                .expect("write");
            reader.read_line(&mut reply).expect("read");
            assert!(reply.contains("\"ingested\":4"), "{reply}");

            reply.clear();
            writer
                .write_all(b"{\"cmd\":\"shutdown\",\"id\":2}\n")
                .expect("write");
            reader.read_line(&mut reply).expect("read");
            assert!(reply.contains("\"shutting_down\":true"), "{reply}");

            server.join().expect("join").expect("serve_tcp");
        });
    }
}
