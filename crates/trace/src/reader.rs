//! Streaming `.silotrace` reader, header inspection, and full-file
//! validation.

use crate::wire::{
    at_eof, decode_varint, read_array, read_u32, read_u64, read_varint, unzigzag, HashingReader,
};
use crate::writer::{kind_bits, kind_from_bits};
use crate::{TraceError, TraceHeader, TraceSource, END_TAG, MAGIC, MAX_STRING_LEN, VERSION};
use silo_types::{AccessKind, LineAddr, MemRef};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;

fn decode_string<R: Read>(r: &mut R, what: &str) -> Result<String, TraceError> {
    let len = read_u32(r)?;
    if len > MAX_STRING_LEN {
        return Err(TraceError::Corrupt(format!(
            "{what} length {len} exceeds the {MAX_STRING_LEN}-byte header limit"
        )));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| TraceError::Corrupt(format!("{what} is not UTF-8")))
}

pub(crate) fn decode_header<R: Read>(r: &mut R) -> Result<TraceHeader, TraceError> {
    let magic: [u8; 8] = read_array(r)?;
    if magic != MAGIC {
        return Err(TraceError::BadMagic);
    }
    let version = read_u32(r)?;
    if version != VERSION {
        return Err(TraceError::UnsupportedVersion(version));
    }
    let cores = read_u32(r)?;
    if cores == 0 || cores > crate::MAX_CORES {
        return Err(TraceError::Corrupt(format!(
            "header declares {cores} cores (accepted range: 1..={})",
            crate::MAX_CORES
        )));
    }
    let cores = cores as usize;
    let refs_per_core = read_u64(r)?;
    let seed = read_u64(r)?;
    let name = decode_string(r, "workload name")?;
    let provenance = decode_string(r, "provenance")?;
    Ok(TraceHeader {
        cores,
        refs_per_core,
        seed,
        name,
        provenance,
    })
}

/// Reads and validates just the header of `path` (magic, version,
/// string bounds) without touching the record stream.
///
/// # Errors
///
/// Returns [`TraceError`] for I/O failures or malformed headers.
pub fn read_header(path: &Path) -> Result<TraceHeader, TraceError> {
    let file = std::fs::File::open(path)
        .map_err(|e| TraceError::Io(format!("cannot open {}: {e}", path.display())))?;
    decode_header(&mut BufReader::new(file))
}

/// Everything a full validation pass learns about a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSummary {
    /// The validated header.
    pub header: TraceHeader,
    /// Total records in the stream (matches the footer count).
    pub records: u64,
    /// Records per core.
    pub per_core: Vec<u64>,
    /// Record counts by kind: instruction fetches, reads, writes.
    pub kinds: [u64; 3],
    /// Records flagged as dependent on the previous miss.
    pub dependent: u64,
}

/// Validates an entire trace in one streaming pass — header, every
/// record tag, footer count, and FNV-1a checksum — with memory bounded
/// by the read buffer. The builder runs this on every `trace:file=`
/// workload, so replay itself can stream without re-validating.
///
/// # Errors
///
/// Returns [`TraceError::Corrupt`] for truncated streams, reserved
/// tags, out-of-range cores, count mismatches, checksum failures, or
/// trailing bytes, and [`TraceError::Io`] for filesystem problems.
pub fn verify(path: &Path) -> Result<TraceSummary, TraceError> {
    let file = std::fs::File::open(path)
        .map_err(|e| TraceError::Io(format!("cannot open {}: {e}", path.display())))?;
    verify_stream(BufReader::new(file))
}

/// [`verify`] over any buffered byte stream.
///
/// # Errors
///
/// Same as [`verify`].
pub fn verify_stream<R: BufRead>(inner: R) -> Result<TraceSummary, TraceError> {
    let mut r = HashingReader::new(inner);
    let header = decode_header(&mut r)?;
    let mut per_core = vec![0u64; header.cores];
    let mut kinds = [0u64; 3];
    let mut dependent = 0u64;
    while let Some(rec) = next_record(&mut r, header.cores)? {
        per_core[rec.core] += 1;
        kinds[kind_bits(rec.kind) as usize] += 1;
        dependent += u64::from(rec.dependent);
    }
    let count = read_u64(&mut r)?;
    let records: u64 = per_core.iter().sum();
    if count != records {
        return Err(TraceError::Corrupt(format!(
            "footer count {count} does not match the {records} records present"
        )));
    }
    let computed = r.digest();
    let inner = r.inner_mut();
    let stored = read_u64(inner)?;
    if stored != computed {
        return Err(TraceError::Corrupt(format!(
            "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
        )));
    }
    if !at_eof(inner)? {
        return Err(TraceError::Corrupt(
            "trailing bytes after the footer".into(),
        ));
    }
    Ok(TraceSummary {
        header,
        records,
        per_core,
        kinds,
        dependent,
    })
}

fn split_tag(tag: u64, cores: usize) -> Result<(usize, AccessKind), TraceError> {
    let kind = kind_from_bits((tag >> 1) & 0b11)
        .ok_or_else(|| TraceError::Corrupt(format!("reserved kind in record tag {tag:#x}")))?;
    let core = (tag >> 3) as usize;
    if core >= cores {
        return Err(TraceError::Corrupt(format!(
            "record for core {core} in a {cores}-core trace"
        )));
    }
    Ok((core, kind))
}

/// One record as stored: its line is still a delta from the core's
/// previous record.
struct Record {
    core: usize,
    kind: AccessKind,
    gap: u32,
    delta: u64,
    dependent: bool,
}

/// Decodes one record from successive varints, `Ok(None)` at the
/// sentinel. Each field is checked as soon as it is read, so every
/// varint source reports a stream's first fault.
#[inline]
fn parse_record<E: From<TraceError>>(
    cores: usize,
    mut varint: impl FnMut() -> Result<u64, E>,
) -> Result<Option<Record>, E> {
    let tag = varint()?;
    if tag == END_TAG {
        return Ok(None);
    }
    let (core, kind) = split_tag(tag, cores)?;
    let gap = varint()?;
    let gap =
        u32::try_from(gap).map_err(|_| TraceError::Corrupt(format!("gap {gap} overflows u32")))?;
    let delta = varint()?; // any 64-bit value is valid
    Ok(Some(Record {
        core,
        kind,
        gap,
        delta,
        dependent: tag & 1 == 1,
    }))
}

/// Reads the next record from `r`, `Ok(None)` at the sentinel. A record
/// wholly inside the read buffer is decoded there and consumed in one
/// step; one that runs past the buffer's end (or a fault that needs
/// bytes beyond it to be told apart from truncation) is read a byte at
/// a time.
#[inline]
fn next_record<R: BufRead>(r: &mut R, cores: usize) -> Result<Option<Record>, TraceError> {
    let buf = r.fill_buf()?;
    let mut used = 0;
    // `Err(None)`: the buffer ended first.
    let decoded = parse_record(cores, || {
        let (v, n) = decode_varint(&buf[used..])?.ok_or(None)?;
        used += n;
        Ok(v)
    });
    match decoded {
        Ok(rec) => {
            r.consume(used);
            Ok(rec)
        }
        Err(Some(e)) => Err(e),
        Err(None) => parse_record(cores, || read_varint(r)),
    }
}

/// A streaming [`TraceSource`] over a `.silotrace` byte stream.
///
/// Records are decoded on demand; references for cores other than the
/// one being pulled are parked in small per-core queues. When the trace
/// was recorded round-robin (as [`crate::write_traces`] and the
/// simulator's capture path do) and is consumed round-robin (as the run
/// loop does), those queues hold at most one record per core, so peak
/// memory is the read buffer plus O(cores) — independent of trace
/// length.
///
/// `open` validates only the header. Run [`verify`] first (the
/// simulation builder does) to reject corrupt files up front; a decode
/// anomaly mid-replay ends the affected streams early instead of
/// panicking.
#[derive(Debug)]
pub struct TraceReader<R = BufReader<std::fs::File>> {
    input: R,
    header: TraceHeader,
    last_line: Vec<u64>,
    pending: Vec<VecDeque<MemRef>>,
    finished: bool,
}

impl TraceReader<BufReader<std::fs::File>> {
    /// Opens `path` and validates its header.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] for I/O failures or malformed headers.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        let file = std::fs::File::open(path)
            .map_err(|e| TraceError::Io(format!("cannot open {}: {e}", path.display())))?;
        TraceReader::new(BufReader::new(file))
    }
}

impl<R: BufRead> TraceReader<R> {
    /// Wraps a buffered byte stream positioned at the file start and
    /// validates the header.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] for read failures or malformed headers.
    pub fn new(mut input: R) -> Result<Self, TraceError> {
        let header = decode_header(&mut input)?;
        let cores = header.cores;
        Ok(TraceReader {
            input,
            header,
            last_line: vec![0; cores],
            pending: vec![VecDeque::new(); cores],
            finished: false,
        })
    }

    /// The trace's header metadata.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Records currently parked in the per-core queues (bounded by the
    /// interleaving skew between recording and consumption order).
    pub fn buffered(&self) -> usize {
        self.pending.iter().map(VecDeque::len).sum()
    }

    /// Decodes the next record in stream order.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] for decode failures; `Ok(None)` at the
    /// sentinel.
    fn read_record(&mut self) -> Result<Option<(usize, MemRef)>, TraceError> {
        if self.finished {
            return Ok(None);
        }
        let Some(rec) = next_record(&mut self.input, self.header.cores)? else {
            self.finished = true;
            return Ok(None);
        };
        let line = self.last_line[rec.core].wrapping_add(unzigzag(rec.delta) as u64);
        self.last_line[rec.core] = line;
        Ok(Some((
            rec.core,
            MemRef {
                line: LineAddr::new(line),
                kind: rec.kind,
                gap_instructions: rec.gap,
                dependent: rec.dependent,
            },
        )))
    }
}

impl<R: BufRead> TraceSource for TraceReader<R> {
    fn next(&mut self, core: usize) -> Option<MemRef> {
        if core >= self.header.cores {
            return None;
        }
        loop {
            if let Some(r) = self.pending[core].pop_front() {
                return Some(r);
            }
            match self.read_record() {
                Ok(Some((c, r))) if c == core => return Some(r),
                Ok(Some((c, r))) => self.pending[c].push_back(r),
                Ok(None) => return None,
                Err(_) => {
                    // Pre-validated files never land here (the builder
                    // runs `verify`); on a mid-replay anomaly, end the
                    // stream rather than panic inside the run loop.
                    self.finished = true;
                    return None;
                }
            }
        }
    }

    fn len_hint(&self) -> Option<u64> {
        (self.header.refs_per_core > 0)
            .then(|| self.header.refs_per_core * self.header.cores as u64)
    }
}

/// Reads an entire trace into per-core vectors (strict: any decode
/// failure is an error, unlike the lenient replay path).
///
/// # Errors
///
/// Returns [`TraceError`] for I/O failures or malformed content.
pub fn read_traces(path: &Path) -> Result<(TraceHeader, Vec<Vec<MemRef>>), TraceError> {
    let mut reader = TraceReader::open(path)?;
    let mut traces: Vec<Vec<MemRef>> = vec![Vec::new(); reader.header.cores];
    while let Some((core, r)) = reader.read_record()? {
        traces[core].push(r);
    }
    let header = reader.header;
    Ok((header, traces))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceWriter;
    use silo_types::AccessKind;
    use std::io::Cursor;

    fn sample_header(cores: usize) -> TraceHeader {
        TraceHeader {
            cores,
            refs_per_core: 3,
            seed: 42,
            name: "unit-workload".into(),
            provenance: "silo-trace unit test".into(),
        }
    }

    /// A small deterministic mixed-kind trace with forward and backward
    /// strides.
    fn sample_traces(cores: usize, len: usize) -> Vec<Vec<MemRef>> {
        (0..cores)
            .map(|c| {
                (0..len)
                    .map(|i| MemRef {
                        line: LineAddr::new(
                            ((c as u64 + 1) << 32) ^ (i as u64 * 37 % 101) << (i % 3),
                        ),
                        kind: match i % 3 {
                            0 => AccessKind::Read,
                            1 => AccessKind::Write,
                            _ => AccessKind::IFetch,
                        },
                        gap_instructions: (i as u32 * 7) % 23,
                        dependent: i % 4 == 0,
                    })
                    .collect()
            })
            .collect()
    }

    fn encode(header: &TraceHeader, traces: &[Vec<MemRef>]) -> Vec<u8> {
        let mut w = TraceWriter::new(Vec::new(), header).expect("writer");
        let longest = traces.iter().map(Vec::len).max().unwrap_or(0);
        for i in 0..longest {
            for (core, t) in traces.iter().enumerate() {
                if let Some(&mr) = t.get(i) {
                    w.write(core, mr).expect("write");
                }
            }
        }
        w.finish().expect("finish")
    }

    #[test]
    fn round_trip_preserves_every_record_and_the_header() {
        let header = sample_header(3);
        let traces = sample_traces(3, 40);
        let bytes = encode(&header, &traces);
        let mut r = TraceReader::new(Cursor::new(bytes)).expect("reader");
        assert_eq!(r.header(), &header);
        assert_eq!(r.len_hint(), Some(9));
        for i in 0..40 {
            for (core, t) in traces.iter().enumerate() {
                assert_eq!(r.next(core), Some(t[i]), "core {core} record {i}");
            }
        }
        for core in 0..3 {
            assert_eq!(r.next(core), None, "core {core} exhausted");
        }
    }

    #[test]
    fn round_robin_replay_buffers_at_most_one_record_per_core() {
        let traces = sample_traces(4, 64);
        let bytes = encode(&sample_header(4), &traces);
        let mut r = TraceReader::new(Cursor::new(bytes)).expect("reader");
        for _ in 0..64 {
            for core in 0..4 {
                assert!(r.next(core).is_some());
                assert!(
                    r.buffered() < 4,
                    "round-robin replay must stay O(cores): {} buffered",
                    r.buffered()
                );
            }
        }
    }

    #[test]
    fn skewed_consumption_still_yields_complete_per_core_streams() {
        let traces = sample_traces(2, 20);
        let bytes = encode(&sample_header(2), &traces);
        let mut r = TraceReader::new(Cursor::new(bytes)).expect("reader");
        // Drain core 1 first, then core 0: order within each core holds.
        let got1: Vec<MemRef> = std::iter::from_fn(|| r.next(1)).collect();
        let got0: Vec<MemRef> = std::iter::from_fn(|| r.next(0)).collect();
        assert_eq!(got1, traces[1]);
        assert_eq!(got0, traces[0]);
    }

    #[test]
    fn verify_accepts_sealed_streams_and_counts_kinds() {
        let traces = sample_traces(2, 30);
        let bytes = encode(&sample_header(2), &traces);
        let s = verify_stream(Cursor::new(bytes)).expect("valid");
        assert_eq!(s.records, 60);
        assert_eq!(s.per_core, vec![30, 30]);
        assert_eq!(s.kinds.iter().sum::<u64>(), 60);
        assert_eq!(s.kinds[1], 20, "a third of the sample records read");
        assert_eq!(s.dependent, 16, "every fourth record is dependent");
    }

    #[test]
    fn verify_rejects_corruption_truncation_and_trailing_bytes() {
        let header = sample_header(2);
        let bytes = encode(&header, &sample_traces(2, 25));

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert_eq!(verify_stream(Cursor::new(bad)), Err(TraceError::BadMagic));

        // Future version.
        let mut bad = bytes.clone();
        bad[8] = 99;
        assert!(matches!(
            verify_stream(Cursor::new(bad)),
            Err(TraceError::UnsupportedVersion(99))
        ));

        // A corrupt core count must be rejected before any per-core
        // allocation, not discovered via OOM (cores sits at offset 12:
        // magic 8 + version 4).
        let mut bad = bytes.clone();
        bad[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            verify_stream(Cursor::new(bad.clone())),
            Err(TraceError::Corrupt(_))
        ));
        assert!(matches!(
            TraceReader::new(Cursor::new(bad)),
            Err(TraceError::Corrupt(_))
        ));

        // A flipped record byte breaks the checksum (or the stream).
        let mut bad = bytes.clone();
        let mid = bytes.len() / 2;
        bad[mid] ^= 0x01;
        assert!(matches!(
            verify_stream(Cursor::new(bad)),
            Err(TraceError::Corrupt(_))
        ));

        // Truncation anywhere in the records or footer.
        for cut in [bytes.len() - 1, bytes.len() - 9, bytes.len() / 2, 40] {
            let bad = bytes[..cut].to_vec();
            assert!(
                matches!(verify_stream(Cursor::new(bad)), Err(TraceError::Corrupt(_))),
                "truncation at {cut} must be detected"
            );
        }

        // Trailing garbage after the footer.
        let mut bad = bytes.clone();
        bad.push(0x00);
        assert!(matches!(
            verify_stream(Cursor::new(bad)),
            Err(TraceError::Corrupt(_))
        ));

        // An unfinished writer (no sentinel/footer) is truncated too.
        let mut w = TraceWriter::new(Vec::new(), &header).expect("writer");
        w.write(0, MemRef::read(LineAddr::new(5))).expect("write");
        drop(w);
    }

    /// Every record decoded from `bytes` through a `cap`-byte read
    /// buffer, strictly (the first fault is the error).
    fn decode_all(bytes: &[u8], cap: usize) -> Result<Vec<(usize, MemRef)>, TraceError> {
        let input = BufReader::with_capacity(cap, Cursor::new(bytes.to_vec()));
        let mut r = TraceReader::new(input)?;
        std::iter::from_fn(|| r.read_record().transpose()).collect()
    }

    #[test]
    fn records_straddling_the_read_buffer_decode_like_whole_ones() {
        let bytes = encode(&sample_header(3), &sample_traces(3, 50));
        let whole = decode_all(&bytes, bytes.len()).expect("valid");
        let summary = verify_stream(Cursor::new(bytes.clone())).expect("valid");
        assert_eq!(whole.len(), 150);
        for cap in [1, 2, 3, 7, 29, 30, 31, 64] {
            assert_eq!(decode_all(&bytes, cap).expect("valid"), whole, "cap {cap}");
            let input = BufReader::with_capacity(cap, Cursor::new(bytes.clone()));
            assert_eq!(verify_stream(input).as_ref(), Ok(&summary), "cap {cap}");
        }
        // Every single-byte corruption and truncation fails alike at
        // every buffer size, from the buffer or a byte at a time (every
        // 37th byte under Miri).
        for at in (0..bytes.len()).step_by(if cfg!(miri) { 37 } else { 1 }) {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x5a;
            for bad in [flipped, bytes[..at].to_vec()] {
                let want = (decode_all(&bad, 1), verify_stream(Cursor::new(bad.clone())));
                for cap in [2, 7, 30, 4096] {
                    let input = BufReader::with_capacity(cap, Cursor::new(bad.clone()));
                    assert_eq!((decode_all(&bad, cap), verify_stream(input)), want);
                }
            }
        }
    }

    #[test]
    fn malformed_records_fail_with_their_own_error() {
        let header = encode(&sample_header(2), &[]);
        let header = &header[..header.len() - 17]; // sentinel + footer
        let cases: [(&[u8], &str); 5] = [
            (&[0x80; 11], "varint overflows 64 bits"),
            (&[1 << 3 | 3 << 1], "reserved kind"),
            (&[2 << 3], "record for core 2 in a 2-core trace"),
            (&[0, 0x80, 0x80, 0x80, 0x80, 0x10], "overflows u32"),
            (&[0, 1], "unexpected end of file"),
        ];
        for (record, want) in cases {
            let mut bytes = [header, record].concat();
            // Padding puts the faulty record wholly inside the buffer
            // (the truncated one stays at the end of the stream).
            let paddings: &[usize] = if want.contains("end of file") {
                &[0]
            } else {
                &[0, 40]
            };
            for &padding in paddings {
                bytes.resize(bytes.len() + padding, 0x80);
                for cap in [1, 30, 4096] {
                    let input = BufReader::with_capacity(cap, Cursor::new(bytes.clone()));
                    let got = [
                        decode_all(&bytes, cap).map(|_| ()),
                        verify_stream(input).map(|_| ()),
                    ];
                    for err in got {
                        assert!(
                            matches!(&err, Err(TraceError::Corrupt(m)) if m.contains(want)),
                            "{record:?} + {padding} bytes, cap {cap}: {err:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn header_only_files_verify_as_empty_traces() {
        let bytes = encode(&sample_header(2), &sample_traces(2, 0));
        let s = verify_stream(Cursor::new(bytes.clone())).expect("valid empty");
        assert_eq!(s.records, 0);
        let mut r = TraceReader::new(Cursor::new(bytes)).expect("reader");
        assert_eq!(r.next(0), None);
    }

    #[test]
    fn file_round_trip_through_the_path_helpers() {
        let dir = std::env::temp_dir().join(format!("silo-trace-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("roundtrip.silotrace");
        let header = sample_header(2);
        let traces = sample_traces(2, 15);
        crate::write_traces(&path, &header, &traces).expect("write");
        assert_eq!(read_header(&path).expect("header"), header);
        let s = verify(&path).expect("verify");
        assert_eq!(s.records, 30);
        let (h, got) = read_traces(&path).expect("read back");
        assert_eq!(h, header);
        assert_eq!(got, traces);
        let _ = std::fs::remove_file(&path);
    }
}
