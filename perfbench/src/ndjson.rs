//! Reading the NDJSON events the program's telemetry already emits.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// An in-memory telemetry sink the benchmark reads back after a run.
#[derive(Debug, Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// Everything written so far, as text.
    #[must_use]
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().expect("buffer lock")).into_owned()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().expect("buffer lock").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The unsigned number stored under `key` in one event line.
#[must_use]
pub fn num(line: &str, key: &str) -> Option<u64> {
    let rest = line.split(&format!("\"{key}\":")).nth(1)?;
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The string stored under `key` in one event line.
#[must_use]
pub fn text<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = line.split(&format!("\"{key}\":\"")).nth(1)?;
    rest.split('"').next()
}

/// What a session trace says about the attack's spans and journal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Wall µs of the outermost `attack` span.
    pub attack_us: Option<u64>,
    /// Per span name: total wall µs and physical loads.
    pub spans: BTreeMap<String, (u64, u64)>,
    /// Journal writes and the bytes they wrote.
    pub journal_writes: u64,
    /// Bytes across all journal writes.
    pub journal_bytes: u64,
    /// FINDLUT candidates, from the `candidates` event.
    pub candidates: u64,
}

/// Folds a session's NDJSON events into a [`TraceSummary`].
#[must_use]
pub fn summarise(trace: &str) -> TraceSummary {
    let mut out = TraceSummary::default();
    for line in trace.lines() {
        match text(line, "ev") {
            Some("span_close") => {
                let (Some(name), Some(wall)) = (text(line, "name"), num(line, "wall_us")) else {
                    continue;
                };
                let loads = num(line, "loads").unwrap_or(0);
                if name == "attack" {
                    out.attack_us = Some(out.attack_us.unwrap_or(0) + wall);
                }
                let slot = out.spans.entry(name.to_string()).or_default();
                slot.0 += wall;
                slot.1 += loads;
            }
            Some("journal_write") => {
                out.journal_writes += 1;
                out.journal_bytes += num(line, "bytes").unwrap_or(0);
            }
            Some("candidates") => out.candidates += num(line, "total").unwrap_or(0),
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_spans_and_journal_writes() {
        let trace = concat!(
            "{\"seq\":0,\"ev\":\"trace_start\",\"schema\":1}\n",
            "{\"seq\":1,\"ev\":\"span_open\",\"id\":1,\"name\":\"attack\"}\n",
            "{\"seq\":2,\"ev\":\"journal_write\",\"bytes\":120}\n",
            "{\"seq\":3,\"ev\":\"candidates\",\"total\":124,\"f2\":32}\n",
            "{\"seq\":4,\"ev\":\"span_close\",\"id\":2,\"name\":\"phase:key-extraction\",",
            "\"wall_us\":40,\"queries\":1,\"loads\":3,\"reads\":3,\"retries\":0,\"backoff_ms\":0}\n",
            "{\"seq\":5,\"ev\":\"journal_write\",\"bytes\":80}\n",
            "{\"seq\":6,\"ev\":\"span_close\",\"id\":1,\"name\":\"attack\",\"wall_us\":900,",
            "\"loads\":545}\n",
        );
        let s = summarise(trace);
        assert_eq!(s.attack_us, Some(900));
        assert_eq!(s.spans["phase:key-extraction"], (40, 3));
        assert_eq!((s.journal_writes, s.journal_bytes), (2, 200));
        assert_eq!(s.candidates, 124);
    }
}
