//! The append-only sweep journal: restartable campaigns.
//!
//! Workers append one JSONL record per completed cell, keyed by the
//! cell's full identity `(benchmark, design, config fingerprint, seed)`
//! and carrying the complete integer [`RunMetrics`], so a killed sweep
//! can be resumed with `--resume`: journalled cells are replayed from
//! disk (bit-identical — every metric is an integer) and only the
//! missing cells re-execute.
//!
//! ```text
//! {"v":1,"bench":"Compress","design":"MultiPorted { ports: 4 }","config":"a1b2…","seed":1996,"metrics":{…}}
//! ```
//!
//! Each record is written and flushed as a single line, so a kill can
//! tear at most the final line; [`read_journal`] tolerates exactly that
//! (a torn tail is dropped, a corrupt interior line is an error).

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::sync::Mutex;

use hbat_core::stats::TranslatorStats;
use hbat_cpu::RunMetrics;
use hbat_mem::cache::CacheStats;
use hbat_obs::{IntervalRecord, StallCause, INTERVAL_SCHEMA_VERSION};

use crate::executor::escape_json;

/// Journal format version; bump on incompatible record changes.
pub const JOURNAL_VERSION: u64 = 1;

/// The durable identity of one sweep cell.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellKey {
    /// Benchmark name (`Benchmark::name`).
    pub bench: String,
    /// Unambiguous design identity (the `DesignSpec` debug form, which
    /// carries parameters, unlike the display mnemonic).
    pub design: String,
    /// Fingerprint of the experiment configuration (scale, machine
    /// model, geometry, workload, design seed).
    pub config: String,
    /// The design replacement seed.
    pub seed: u64,
}

/// One journalled cell: identity plus its full metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// The cell's identity.
    pub key: CellKey,
    /// The cell's complete run metrics.
    pub metrics: RunMetrics,
}

/// FNV-1a over a string, hex-rendered — the config fingerprint hash.
pub fn fnv1a_hex(s: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

// ---- serialization -------------------------------------------------------

fn push_u64_fields(out: &mut String, fields: &[(&str, u64)]) {
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&escape_json(k));
        out.push(':');
        out.push_str(&v.to_string());
    }
}

/// Writes a stats struct's render and parse functions from one list of
/// its fields, so the two cannot drift apart: the listed `u64` fields
/// render in order as `"name":value`, then each nested struct as
/// `"name":{…}` through its own pair. The parser's struct literal names
/// every field, so a field added to the struct and not to the list
/// fails to compile.
macro_rules! stats_codec {
    (
        $ty:ident, $render:ident, $parse:ident,
        [$($field:ident),* $(,)?]
        $(, $nested:ident: ($nrender:ident, $nparse:ident))* $(,)?
    ) => {
        fn $render(out: &mut String, s: &$ty) {
            push_u64_fields(out, &[$((stringify!($field), s.$field)),*]);
            $(
                out.push(',');
                out.push_str(&escape_json(stringify!($nested)));
                out.push_str(":{");
                $nrender(out, &s.$nested);
                out.push('}');
            )*
        }

        fn $parse(obj: &BTreeMap<String, Val>) -> Result<$ty, String> {
            Ok($ty {
                $($field: get_int(obj, stringify!($field))?,)*
                $($nested: $nparse(get_obj(obj, stringify!($nested))?)?,)*
            })
        }
    };
}

stats_codec!(
    TranslatorStats,
    render_translator,
    parse_translator,
    [
        accesses,
        shielded,
        base_hits,
        misses,
        retries,
        internal_queueing_cycles,
        status_writes,
        inclusion_invalidations,
        shield_flushes,
    ],
);

stats_codec!(
    CacheStats,
    render_cache,
    parse_cache,
    [accesses, hits, misses, merged, writebacks, port_rejects],
);

stats_codec!(
    RunMetrics,
    render_metrics,
    parse_metrics,
    [
        cycles,
        committed,
        issued,
        squashed,
        wrong_path_translations,
        issued_mem,
        loads,
        stores,
        cond_branches,
        bpred_correct,
        tlb_dispatch_stall_cycles,
        translation_retries,
    ],
    tlb: (render_translator, parse_translator),
    dcache: (render_cache, parse_cache),
    icache: (render_cache, parse_cache),
);

/// Renders one journal record as a single JSON line (no newline).
pub fn render_record(rec: &JournalRecord) -> String {
    let mut out = String::with_capacity(512);
    out.push_str(&format!(
        "{{\"v\":{JOURNAL_VERSION},\"bench\":{},\"design\":{},\"config\":{},\"seed\":{},\"metrics\":{{",
        escape_json(&rec.key.bench),
        escape_json(&rec.key.design),
        escape_json(&rec.key.config),
        rec.key.seed,
    ));
    render_metrics(&mut out, &rec.metrics);
    out.push_str("}}");
    out
}

// ---- parsing -------------------------------------------------------------

/// The JSON subset journal records and reports use.
#[derive(Debug, Clone, PartialEq)]
enum Val {
    Str(String),
    Int(u64),
    Num(f64),
    Bool(bool),
    Null,
    Obj(BTreeMap<String, Val>),
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("short \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        }
                        other => return Err(format!("bad escape \\{}", char::from(other))),
                    }
                }
                b if b < 0x80 => out.push(char::from(b)),
                _ => {
                    // Multi-byte UTF-8: copy the full sequence.
                    let start = self.pos - 1;
                    while self.peek().is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|e| e.to_string())?;
                    out.push_str(s);
                }
            }
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Val) -> Result<Val, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn parse_value(&mut self) -> Result<Val, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(Val::Str(self.parse_string()?)),
            Some(b'{') => self.parse_object().map(Val::Obj),
            Some(b'n') => self.parse_keyword("null", Val::Null),
            Some(b't') => self.parse_keyword("true", Val::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Val::Bool(false)),
            Some(b'0'..=b'9' | b'-') => {
                let start = self.pos;
                self.pos += 1;
                while self.peek().is_some_and(|b| {
                    b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-')
                }) {
                    self.pos += 1;
                }
                let s =
                    std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
                if let Ok(v) = s.parse::<u64>() {
                    Ok(Val::Int(v))
                } else {
                    s.parse::<f64>().map(Val::Num).map_err(|e| e.to_string())
                }
            }
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn parse_object(&mut self) -> Result<BTreeMap<String, Val>, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(map);
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.eat(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(map);
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

fn get_int(obj: &BTreeMap<String, Val>, key: &str) -> Result<u64, String> {
    match obj.get(key) {
        Some(Val::Int(v)) => Ok(*v),
        _ => Err(format!("missing integer field {key:?}")),
    }
}

fn get_str(obj: &BTreeMap<String, Val>, key: &str) -> Result<String, String> {
    match obj.get(key) {
        Some(Val::Str(s)) => Ok(s.clone()),
        _ => Err(format!("missing string field {key:?}")),
    }
}

fn get_obj<'v>(
    obj: &'v BTreeMap<String, Val>,
    key: &str,
) -> Result<&'v BTreeMap<String, Val>, String> {
    match obj.get(key) {
        Some(Val::Obj(m)) => Ok(m),
        _ => Err(format!("missing object field {key:?}")),
    }
}

/// Strictly parses a standalone JSON object and returns its top-level
/// keys in sorted order. Rejects trailing bytes. Report and CLI tests
/// use this to check that rendered output really is valid JSON.
pub fn parse_json_object(s: &str) -> Result<Vec<String>, String> {
    Ok(parse_top(s, "JSON object")?.keys().cloned().collect())
}

/// Strictly parses one JSON object (`what` names it in errors),
/// rejecting trailing bytes.
fn parse_top(s: &str, what: &str) -> Result<BTreeMap<String, Val>, String> {
    let mut cur = Cursor {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let top = cur.parse_object()?;
    cur.skip_ws();
    if cur.pos != cur.bytes.len() {
        return Err(format!("trailing bytes after {what}"));
    }
    Ok(top)
}

/// [`parse_top`] for a schema-versioned line: its `v` field must be
/// `version`.
fn parse_versioned(line: &str, what: &str, version: u64) -> Result<BTreeMap<String, Val>, String> {
    let top = parse_top(line, what)?;
    let v = get_int(&top, "v")?;
    if v != version {
        return Err(format!("{what} version {v} (this build reads {version})"));
    }
    Ok(top)
}

/// The cell identity every journal and sidecar line carries.
fn parse_key(top: &BTreeMap<String, Val>) -> Result<CellKey, String> {
    Ok(CellKey {
        bench: get_str(top, "bench")?,
        design: get_str(top, "design")?,
        config: get_str(top, "config")?,
        seed: get_int(top, "seed")?,
    })
}

/// Parses one journal line back into a record.
pub fn parse_record(line: &str) -> Result<JournalRecord, String> {
    let top = parse_versioned(line, "journal record", JOURNAL_VERSION)?;
    Ok(JournalRecord {
        key: parse_key(&top)?,
        metrics: parse_metrics(get_obj(&top, "metrics")?)?,
    })
}

/// One parsed interval-sidecar line: the cell it belongs to plus one
/// measured window. Sampled sweeps read these back for `--resume`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalSidecarRecord {
    /// The cell's identity.
    pub key: CellKey,
    /// The window's counters.
    pub window: IntervalRecord,
}

/// Parses one `<journal>.iv.jsonl` line (the shape
/// [`crate::experiment::render_interval_record`] writes) back into a
/// record.
///
/// # Errors
///
/// A human-readable message for any malformed line, including a
/// sidecar schema-version mismatch.
pub fn parse_interval_record(line: &str) -> Result<IntervalSidecarRecord, String> {
    let top = parse_versioned(line, "interval record", u64::from(INTERVAL_SCHEMA_VERSION))?;
    let w = get_obj(&top, "window")?;
    let stalls_obj = get_obj(w, "stalls")?;
    let mut stalls = [0u64; StallCause::COUNT];
    for cause in StallCause::ALL {
        // hbat-lint: allow(panic) index() < COUNT by construction; the array is [_; COUNT]
        stalls[cause.index()] = get_int(stalls_obj, cause.name())?;
    }
    let tlb = get_obj(w, "tlb")?;
    let dcache = get_obj(w, "dcache")?;
    let walks = get_obj(w, "walks")?;
    let occ = get_obj(w, "occupancy")?;
    Ok(IntervalSidecarRecord {
        key: parse_key(&top)?,
        window: IntervalRecord {
            start: get_int(w, "start")?,
            cycles: get_int(w, "cycles")?,
            issue_cycles: get_int(w, "issue")?,
            issued: get_int(w, "issued")?,
            committed: get_int(w, "committed")?,
            stalls,
            tlb_lookups: get_int(tlb, "lookups")?,
            tlb_misses: get_int(tlb, "misses")?,
            dcache_accesses: get_int(dcache, "accesses")?,
            dcache_misses: get_int(dcache, "misses")?,
            walks: get_int(walks, "count")?,
            walk_cycles: get_int(walks, "cycles")?,
            rob_sum: get_int(occ, "rob_sum")?,
            lsq_sum: get_int(occ, "lsq_sum")?,
            samples: get_int(occ, "samples")?,
        },
    })
}

/// Reads every complete record from an interval sidecar, with the same
/// torn-tail tolerance as [`read_journal`].
///
/// # Errors
///
/// I/O errors, or corruption anywhere but the final line.
pub fn read_interval_sidecar(path: &Path) -> io::Result<Vec<IntervalSidecarRecord>> {
    read_jsonl(path, parse_interval_record)
}

// ---- file I/O ------------------------------------------------------------

/// A shared append-only journal writer. Workers append concurrently;
/// each record is one `write` + `flush`, so a kill tears at most the
/// final line.
#[derive(Debug)]
pub struct JournalWriter {
    file: Mutex<File>,
}

impl JournalWriter {
    /// Opens `path` for appending, creating it (and parent directories)
    /// if needed.
    pub fn append_to(path: &Path) -> io::Result<JournalWriter> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(JournalWriter {
            file: Mutex::new(file),
        })
    }

    /// Appends one record as a flushed JSONL line.
    pub fn append(&self, rec: &JournalRecord) -> io::Result<()> {
        self.append_line(&render_record(rec))
    }

    /// Appends one pre-rendered line (no trailing newline) and flushes.
    /// Sidecar streams (the observability summaries) share the writer's
    /// torn-tail guarantee through this.
    pub fn append_line(&self, line: &str) -> io::Result<()> {
        let mut f = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        writeln!(f, "{line}")?;
        f.flush()
    }

    /// Appends a pre-rendered block of `\n`-terminated lines under one
    /// lock, flushed once — so a multi-line group (one cell's interval
    /// windows, say) stays contiguous even when writers race.
    pub fn append_block(&self, block: &str) -> io::Result<()> {
        let mut f = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f.write_all(block.as_bytes())?;
        f.flush()
    }
}

/// Reads every complete record from a journal file. A torn *final* line
/// (the signature of a killed run) is silently dropped; an unparseable
/// interior line is real corruption and errors. A missing file reads as
/// an empty journal.
///
/// # Errors
///
/// I/O errors, or corruption anywhere but the final line.
pub fn read_journal(path: &Path) -> io::Result<Vec<JournalRecord>> {
    read_jsonl(path, parse_record)
}

/// The one torn-tail reader behind every JSONL stream: each non-blank
/// line goes through `parse`; a torn final line is dropped, a corrupt
/// interior line is an error naming `path:line`, and a missing file
/// reads as empty.
fn read_jsonl<T>(path: &Path, parse: fn(&str) -> Result<T, String>) -> io::Result<Vec<T>> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut records = Vec::new();
    let lines: Vec<String> = BufReader::new(file).lines().collect::<io::Result<_>>()?;
    let last = lines.len().saturating_sub(1);
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse(line) {
            Ok(rec) => records.push(rec),
            Err(_) if i == last => break, // torn tail from a killed run
            Err(e) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}:{}: {e}", path.display(), i + 1),
                ))
            }
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric field holds a distinct non-zero value, so a field
    /// that `render_record`/`parse_record` drops or swaps fails the
    /// round-trip tests.
    fn sample_record() -> JournalRecord {
        JournalRecord {
            key: CellKey {
                bench: "Compress".into(),
                design: "MultiPorted { ports: 4 }".into(),
                config: "a1b2c3d4e5f60718".into(),
                seed: 1996,
            },
            metrics: RunMetrics {
                cycles: 123_456,
                committed: 100_000,
                issued: 140_000,
                squashed: 9_999,
                wrong_path_translations: 321,
                issued_mem: 44_000,
                loads: 30_000,
                stores: 10_000,
                cond_branches: 12_000,
                bpred_correct: 11_000,
                tlb_dispatch_stall_cycles: 777,
                translation_retries: 55,
                tlb: TranslatorStats {
                    accesses: 40_000,
                    shielded: 20_000,
                    base_hits: 19_000,
                    misses: 1_000,
                    retries: 56,
                    internal_queueing_cycles: 12,
                    status_writes: 3,
                    inclusion_invalidations: 2,
                    shield_flushes: 1,
                },
                dcache: CacheStats {
                    accesses: 40_010,
                    hits: 39_008,
                    misses: 1_002,
                    merged: 10,
                    writebacks: 200,
                    port_rejects: 5,
                },
                icache: CacheStats {
                    accesses: 100_100,
                    hits: 99_500,
                    misses: 600,
                    merged: 7,
                    writebacks: 4,
                    port_rejects: 6,
                },
            },
        }
    }

    #[test]
    fn record_round_trips_bit_identically() {
        let rec = sample_record();
        let line = render_record(&rec);
        assert!(!line.contains('\n'), "one record, one line");
        let back = parse_record(&line).unwrap();
        assert_eq!(rec, back);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_record("").is_err());
        assert!(parse_record("{").is_err());
        assert!(parse_record("{\"v\":1}").is_err());
        assert!(parse_record("not json at all").is_err());
        let line = render_record(&sample_record());
        assert!(parse_record(&line[..line.len() - 2]).is_err(), "torn line");
        assert!(parse_record(&format!("{line}x")).is_err(), "trailing bytes");
        // Wrong version is rejected.
        let wrong_v = line.replacen("\"v\":1", "\"v\":9", 1);
        assert!(parse_record(&wrong_v).is_err());
    }

    #[test]
    fn journal_file_round_trip_and_torn_tail() {
        let dir = std::env::temp_dir().join(format!("hbat-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.journal");
        std::fs::remove_file(&path).ok();

        let w = JournalWriter::append_to(&path).unwrap();
        let mut a = sample_record();
        let mut b = sample_record();
        b.key.bench = "Xlisp".into();
        b.metrics.cycles = 1;
        w.append(&a).unwrap();
        w.append(&b).unwrap();
        drop(w);

        let back = read_journal(&path).unwrap();
        assert_eq!(back, vec![a.clone(), b.clone()]);

        // Simulate a kill mid-append: torn final line is dropped.
        let mut contents = std::fs::read_to_string(&path).unwrap();
        contents.push_str("{\"v\":1,\"bench\":\"Gcc");
        std::fs::write(&path, &contents).unwrap();
        let tolerant = read_journal(&path).unwrap();
        assert_eq!(tolerant.len(), 2);

        // But a corrupt interior line is an error.
        let corrupt = format!("garbage\n{}\n", render_record(&a));
        std::fs::write(&path, corrupt).unwrap();
        assert!(read_journal(&path).is_err());

        // A missing journal reads as empty.
        std::fs::remove_file(&path).unwrap();
        assert_eq!(read_journal(&path).unwrap(), Vec::new());
        a.key.seed = 7;
        drop(a);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interval_sidecar_round_trips_and_tolerates_torn_tail() {
        let key = sample_record().key;
        let window = IntervalRecord {
            start: 5,
            cycles: 100,
            issue_cycles: 60,
            issued: 150,
            committed: 90,
            stalls: [1, 2, 3, 4, 5, 6, 7, 12],
            tlb_lookups: 40,
            tlb_misses: 3,
            dcache_accesses: 38,
            dcache_misses: 2,
            walks: 3,
            walk_cycles: 90,
            rob_sum: 500,
            lsq_sum: 200,
            samples: 10,
        };
        let line = crate::experiment::render_interval_record(&key, &window);
        let back = parse_interval_record(&line).unwrap();
        assert_eq!(back.key, key);
        assert_eq!(back.window, window);
        assert!(parse_interval_record(&line[..line.len() - 3]).is_err());
        let wrong_v = line.replacen("\"v\":1", "\"v\":9", 1);
        assert!(parse_interval_record(&wrong_v).is_err());

        let dir = std::env::temp_dir().join(format!("hbat-ivjournal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.journal.iv.jsonl");
        std::fs::remove_file(&path).ok();
        let w = JournalWriter::append_to(&path).unwrap();
        w.append_line(&line).unwrap();
        let mut second = window;
        second.start = 1005;
        w.append_line(&crate::experiment::render_interval_record(&key, &second))
            .unwrap();
        drop(w);
        let back = read_interval_sidecar(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].window.start, 1005);

        // Torn tail: dropped. Missing file: empty.
        let mut contents = std::fs::read_to_string(&path).unwrap();
        contents.push_str("{\"v\":1,\"bench\":\"Gcc");
        std::fs::write(&path, &contents).unwrap();
        assert_eq!(read_interval_sidecar(&path).unwrap().len(), 2);
        std::fs::remove_file(&path).unwrap();
        assert_eq!(read_interval_sidecar(&path).unwrap(), Vec::new());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut rec = sample_record();
        rec.key.design = "weird \"name\"\\with\nescapes\tand unicode é".into();
        let back = parse_record(&render_record(&rec)).unwrap();
        assert_eq!(rec, back);
    }

    #[test]
    fn fnv1a_is_stable_and_distinguishes() {
        let a = fnv1a_hex("config-a");
        assert_eq!(a, fnv1a_hex("config-a"));
        assert_ne!(a, fnv1a_hex("config-b"));
        assert_eq!(a.len(), 16);
    }
}
