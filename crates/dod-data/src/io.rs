//! CSV serialization of point sets.
//!
//! The evaluation datasets live in HDFS as delimited text (the
//! OpenStreetMap extract carries `ID, timestamp, longitude, latitude`
//! rows); these helpers provide the equivalent flat-file interchange for
//! the examples and the benchmark harness.
//!
//! # Reading
//!
//! [`read_csv`] starts every batch job and every `dod serve`, so it is
//! one streaming pass over the file's bytes through a 64 KiB buffer,
//! with no allocation per line: fields go straight into the point set's
//! coordinate buffer. A line is read by one of two lanes.
//!
//! **The fast path** takes a line whose fields all match
//! `-?[0-9]*\.?[0-9]*` with 1 to 19 digits and a mantissa `m < 2^53`,
//! separated by commas and ended by `\n` or `\r\n`, and nothing else.
//! Each field goes through the workspace's one exact short-decimal
//! conversion, shared with the JSON reader (`decimal.rs` of `dod-obs`,
//! compiled here as this crate's `decimal` module): a field with `f`
//! fraction digits is `m as f64 / 10^f`, which is exactly the bits
//! `str::parse::<f64>` returns (Clinger's fast path; that file carries
//! the argument). `-0` reads as `-0.0`, as it parses.
//!
//! **The slow lane** takes every other line, alone: exponents, a leading
//! `+`, `inf` or `NaN`, whitespace of any kind, more digits, empty fields,
//! a wrong field count, and any other byte. It decodes the line as
//! UTF-8, trims it, splits it on commas and parses each trimmed field
//! with `str::parse::<f64>`, refusing non-finite values and a field
//! count that differs from the first row's. That is the whole-line
//! reading this function has always done, so a file reads to the same
//! bits and fails with the same line and reason whichever lane each of
//! its lines takes; a line that is not UTF-8 is the one difference, now
//! a [`CsvError::Parse`] naming its line rather than an I/O error.

use dod_core::{CoreError, PointSet};
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

/// Errors from CSV reading.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed line (not UTF-8, bad float, non-finite value,
    /// inconsistent arity).
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        reason: String,
    },
    /// Dimensional inconsistency detected by `dod-core`.
    Core(CoreError),
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "io error: {e}"),
            CsvError::Parse { line, reason } => write!(f, "line {line}: {reason}"),
            CsvError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<io::Error> for CsvError {
    fn from(e: io::Error) -> Self {
        CsvError::Io(e)
    }
}

impl From<CoreError> for CsvError {
    fn from(e: CoreError) -> Self {
        CsvError::Core(e)
    }
}

/// Writes `points` as comma-separated rows, one point per line.
pub fn write_csv(path: &Path, points: &PointSet) -> io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for p in points.iter() {
        let mut first = true;
        for v in p {
            if !first {
                write!(out, ",")?;
            }
            write!(out, "{v}")?;
            first = false;
        }
        writeln!(out)?;
    }
    out.flush()
}

/// Bytes [`read_csv`] asks the file for at a time. A line longer than
/// this grows the buffer until the line fits.
const READ_BUF_BYTES: usize = 64 * 1024;

/// Reads a CSV of floating-point rows. The dimensionality is inferred
/// from the first non-empty row; all rows must agree. Every field must be
/// finite: `NaN` and the infinities are refused, as the engine refuses
/// them on a wire point. Blank lines are skipped, and line endings may be
/// `\n` or `\r\n`. See the [module docs](self) for the grammar the fast
/// path reads in place and why it returns exactly `str::parse`'s bits.
///
/// # Errors
/// [`CsvError::Io`] if the file cannot be opened or read;
/// [`CsvError::Parse`] with the 1-based line number for a line that is
/// not UTF-8, a field that is not a float or not finite, or a row whose
/// arity differs from the first row's.
pub fn read_csv(path: &Path) -> Result<PointSet, CsvError> {
    let mut file = std::fs::File::open(path)?;
    let mut rows = Rows::default();
    let mut buf = vec![0; READ_BUF_BYTES];
    // `buf[..filled]` holds the start of a line the last read cut short.
    let mut filled = 0;
    loop {
        if filled == buf.len() {
            buf.resize(2 * buf.len(), 0);
        }
        let n = match file.read(&mut buf[filled..]) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        if n == 0 {
            if filled > 0 {
                // The last line has no newline; give it one.
                buf[filled] = b'\n';
                rows.read(&buf[..=filled])?;
            }
            return rows.finish();
        }
        filled += n;
        let used = rows.read(&buf[..filled])?;
        buf.copy_within(used..filled, 0);
        filled -= used;
    }
}

/// The rows [`read_csv`] has read so far.
#[derive(Default)]
struct Rows {
    /// Every row's fields, back to back.
    coords: Vec<f64>,
    /// The first non-empty row's arity.
    dim: Option<usize>,
    /// Lines read so far, blank ones included.
    lines: usize,
}

impl Rows {
    /// Reads every whole line at the front of `bytes`, returning how many
    /// bytes they span; a line without its `\n` yet is left for the next
    /// call.
    fn read(&mut self, bytes: &[u8]) -> Result<usize, CsvError> {
        let mut at = 0;
        loop {
            let rest = &bytes[at..];
            let start = self.coords.len();
            let used = match fast_row(rest, &mut self.coords) {
                Fast::Row(used) if self.fits(start) => used,
                lane => {
                    self.coords.truncate(start);
                    let end = match lane {
                        Fast::Short => None,
                        _ => rest.iter().position(|&b| b == b'\n'),
                    };
                    let Some(end) = end else {
                        return Ok(at);
                    };
                    self.slow_row(&rest[..end], self.lines + 1)?;
                    end + 1
                }
            };
            self.lines += 1;
            at += used;
        }
    }

    /// Whether the row appended since `start` has the set's arity; the
    /// first row sets it.
    fn fits(&mut self, start: usize) -> bool {
        let got = self.coords.len() - start;
        *self.dim.get_or_insert(got) == got
    }

    /// The slow lane: one line the fast path declined, read as whole
    /// text. Appends its row, skips it if blank, or names what is wrong.
    fn slow_row(&mut self, line: &[u8], lineno: usize) -> Result<(), CsvError> {
        let bad = |reason| CsvError::Parse {
            line: lineno,
            reason,
        };
        let line = std::str::from_utf8(line).map_err(|e| bad(format!("not UTF-8: {e}")))?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return Ok(());
        }
        let start = self.coords.len();
        for field in trimmed.split(',') {
            let v: f64 = field
                .trim()
                .parse()
                .map_err(|e| bad(format!("bad float {field:?}: {e}")))?;
            if !v.is_finite() {
                return Err(bad(format!("non-finite value {field:?}")));
            }
            self.coords.push(v);
        }
        let got = self.coords.len() - start;
        match *self.dim.get_or_insert(got) {
            dim if dim != got => Err(bad(format!("expected {dim} fields, got {got}"))),
            _ => Ok(()),
        }
    }

    /// The set read; a file with no rows is an empty 2-d set.
    fn finish(self) -> Result<PointSet, CsvError> {
        Ok(match self.dim {
            Some(dim) => PointSet::from_flat(dim, self.coords)?,
            None => PointSet::new(2)?,
        })
    }
}

/// What [`fast_row`] made of the line at the front of its bytes.
enum Fast {
    /// Its fields are appended; the line spans this many bytes.
    Row(usize),
    /// It needs the slow lane.
    Slow,
    /// The bytes end before the fast path could decide.
    Short,
}

/// The fast path: parses the line at the front of `bytes` if it is
/// nothing but fast-path fields (see the module docs), appending them to
/// `out`. On [`Fast::Slow`] or [`Fast::Short`], `out` may hold part of
/// the row.
fn fast_row(bytes: &[u8], out: &mut Vec<f64>) -> Fast {
    let mut i = 0;
    loop {
        let Some((v, used)) = crate::decimal::prefix(&bytes[i..]) else {
            return Fast::Slow;
        };
        i += used;
        let Some(&end) = bytes.get(i) else {
            return Fast::Short;
        };
        out.push(v);
        i += 1;
        match end {
            b',' => {}
            b'\n' => return Fast::Row(i),
            b'\r' => {
                return match bytes.get(i) {
                    Some(b'\n') => Fast::Row(i + 1),
                    Some(_) => Fast::Slow,
                    None => Fast::Short,
                }
            }
            _ => return Fast::Slow,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::io::BufRead;
    use std::path::PathBuf;

    /// The line-at-a-time reader `read_csv` was until it read bytes in one
    /// pass, kept verbatim as the reference the differential tests hold
    /// it to.
    fn read_csv_lines(path: &Path) -> Result<PointSet, CsvError> {
        let file = std::fs::File::open(path)?;
        let reader = io::BufReader::new(file);
        let mut points: Option<PointSet> = None;
        let mut coords: Vec<f64> = Vec::new();
        for (lineno, line) in reader.lines().enumerate() {
            let line = line?;
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let bad = |reason| CsvError::Parse {
                line: lineno + 1,
                reason,
            };
            coords.clear();
            for field in trimmed.split(',') {
                let v: f64 = field
                    .trim()
                    .parse()
                    .map_err(|e| bad(format!("bad float {field:?}: {e}")))?;
                if !v.is_finite() {
                    return Err(bad(format!("non-finite value {field:?}")));
                }
                coords.push(v);
            }
            let set = match &mut points {
                Some(s) => s,
                None => points.insert(PointSet::new(coords.len())?),
            };
            set.push(&coords).map_err(|_| {
                bad(format!(
                    "expected {} fields, got {}",
                    set.dim(),
                    coords.len()
                ))
            })?;
        }
        Ok(points.unwrap_or(PointSet::new(2)?))
    }

    /// Writes `bytes` to a file and asserts both readers return the same
    /// bits or the same error; returns `read_csv`'s answer.
    fn both_read(path: &Path, bytes: &[u8]) -> Result<PointSet, CsvError> {
        std::fs::write(path, bytes).unwrap();
        let (got, want) = (read_csv(path), read_csv_lines(path));
        match (&got, &want) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.dim(), b.dim());
                assert!(bits(a) == bits(b), "points differ on {:?}", show(bytes));
            }
            (
                Err(CsvError::Parse { line, reason }),
                Err(CsvError::Parse {
                    line: want_line,
                    reason: want_reason,
                }),
            ) => assert_eq!(
                (line, reason),
                (want_line, want_reason),
                "{:?}",
                show(bytes)
            ),
            _ => panic!("{got:?} against {want:?} on {:?}", show(bytes)),
        }
        got
    }

    fn bits(points: &PointSet) -> Vec<u64> {
        points.as_flat().iter().map(|v| v.to_bits()).collect()
    }

    /// A short, printable excerpt of a failing file.
    fn show(bytes: &[u8]) -> String {
        String::from_utf8_lossy(&bytes[..bytes.len().min(400)]).into_owned()
    }

    /// One drawn field: mostly fast-path decimals, with every shape the
    /// slow lane owns mixed in.
    fn field(rng: &mut StdRng) -> String {
        match rng.gen_range(0..12) {
            0..=2 => format!("{:.6}", rng.gen_range(-1000.0..1000.0)),
            3 => {
                let v = f64::from_bits(rng.gen::<u64>());
                if v.is_finite() {
                    format!("{v}")
                } else {
                    "0".to_string()
                }
            }
            4 => {
                // 17–20 digits, some mantissas past 2^53, a dot somewhere.
                let digits: String = (0..rng.gen_range(17..21))
                    .map(|_| char::from(b'0' + rng.gen_range(0..10u8)))
                    .collect();
                let dot = rng.gen_range(0..=digits.len());
                let sign = if rng.gen_bool(0.5) { "-" } else { "" };
                format!("{sign}{}.{}", &digits[..dot], &digits[dot..])
            }
            5 => format!("{}", rng.gen_range(0..1u64 << 54)),
            6 => format!("{}", rng.gen_range(-1e6..1e6)),
            7 => "9007199254740993".to_string(),
            8 => {
                let special = [
                    "1e5", "+1", ".5", "1.", "-0", "-0.0", "-.5", "007", "1e-7", "2E3", " 3", "4 ",
                    "\t5", "\u{b}6", "\u{a0}7", "8\u{a0}", "0.1",
                ];
                special[rng.gen_range(0..special.len())].to_string()
            }
            9 => {
                let bad = [
                    "-",
                    ".",
                    "inf",
                    "NaN",
                    "-infinity",
                    "",
                    "1..2",
                    "--1",
                    "1-",
                    "x",
                ];
                bad[rng.gen_range(0..bad.len())].to_string()
            }
            _ => format!("{}", rng.gen_range(0..100u32)),
        }
    }

    /// A drawn file: rows of `dim` fields, LF or CRLF endings, blank and
    /// whitespace-only lines, a lone `\r` inside a line, and maybe no
    /// final newline. `bad` is how often a field is drawn from the whole
    /// vocabulary rather than plain six-decimal values, and eight times
    /// how often a row has one field more or fewer.
    fn drawn_file(rng: &mut StdRng, lines: usize, dim: usize, bad: f64) -> Vec<u8> {
        let mut out = Vec::new();
        for _ in 0..lines {
            match rng.gen_range(0..200) {
                0 => {}
                1 => out.extend_from_slice(b" \t"),
                2 => out.extend_from_slice("\u{a0}".as_bytes()),
                _ => {
                    let arity = match rng.gen_bool(bad / 8.0) {
                        true if rng.gen_bool(0.5) => dim + 1,
                        true => dim - 1,
                        false => dim,
                    };
                    for f in 0..arity {
                        if f > 0 {
                            out.push(b',');
                        }
                        let text = if rng.gen_bool(bad) {
                            field(rng)
                        } else {
                            format!("{:.6}", rng.gen_range(0.0..100.0))
                        };
                        out.extend_from_slice(text.as_bytes());
                        if rng.gen_range(0..1000) == 0 {
                            out.push(b'\r');
                        }
                    }
                }
            }
            if rng.gen_bool(0.3) {
                out.push(b'\r');
            }
            out.push(b'\n');
        }
        if rng.gen_bool(0.5) {
            while out.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
                out.pop();
            }
        }
        out
    }

    #[test]
    fn matches_the_line_reader_on_drawn_files() {
        let path = temp_path("drawn.csv");
        let mut rng = StdRng::seed_from_u64(0x00c5_7ead);
        let (mut read, mut refused) = (0, 0);
        for case in 0..3000 {
            let dim = 1 + case % 4;
            let bad = [0.0, 0.002, 0.02, 0.2][case / 4 % 4];
            let lines = rng.gen_range(1..40);
            let bytes = drawn_file(&mut rng, lines, dim, bad);
            match both_read(&path, &bytes) {
                Ok(_) => read += 1,
                Err(_) => refused += 1,
            }
        }
        // Both outcomes are well represented.
        assert!(
            read > 500 && refused > 500,
            "{read} read, {refused} refused"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn matches_the_line_reader_across_buffer_boundaries() {
        let path = temp_path("straddle.csv");
        let mut rng = StdRng::seed_from_u64(0x64_b0f);
        for (dim, bad) in [(2, 0.0), (3, 0.05), (4, 0.001)] {
            // ~300 KiB: many lines straddle a 64 KiB boundary, in every
            // lane.
            let bytes = drawn_file(&mut rng, 300 * 1024 / (dim * 10), dim, bad);
            assert!(bytes.len() > 4 * READ_BUF_BYTES);
            let _ = both_read(&path, &bytes);
        }
        // A line longer than the buffer grows it: one 20,000-field row
        // per line, in both lanes.
        let row = |rng: &mut StdRng, pad: &str| {
            let fields: Vec<String> = (0..20_000)
                .map(|_| format!("{pad}{:.6}", rng.gen_range(0.0..9.0)))
                .collect();
            fields.join(",")
        };
        let long = format!(
            "{}\n{}\r\n{}",
            row(&mut rng, ""),
            row(&mut rng, " "),
            row(&mut rng, "")
        );
        assert!(long.len() > 2 * READ_BUF_BYTES);
        assert_eq!(both_read(&path, long.as_bytes()).unwrap().len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn matches_the_line_reader_on_errors_past_the_first_mib() {
        let path = temp_path("late.csv");
        let mut rng = StdRng::seed_from_u64(7);
        let clean = drawn_file(&mut rng, 120_000, 2, 0.0);
        assert!(clean.len() > 1 << 20);
        let lines = clean.iter().filter(|&&b| b == b'\n').count();
        for (tail, reason) in [
            ("\n1.5,2.5,3.5\n", "expected 2 fields, got 3"),
            ("\r\n1.5\n", "expected 2 fields, got 1"),
            ("\n1.5,2.5.\n", "bad float"),
            ("\n1.5,1e999\n", "non-finite"),
        ] {
            let bytes = [clean.as_slice(), tail.as_bytes()].concat();
            match both_read(&path, &bytes) {
                Err(CsvError::Parse { line, reason: got }) => {
                    assert!(line > lines, "{line}");
                    assert!(got.starts_with(reason), "{got}");
                }
                other => panic!("{other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ledger_shaped_corpora_read_back_bit_identically() {
        let path = temp_path("ledger.csv");
        let mut rng = StdRng::seed_from_u64(11);
        for (dim, n) in [(2, 40_000), (4, 20_000), (2, 25_000), (4, 10_000)] {
            // Coordinates rounded to six decimals and written shortest
            // round-trip, as the benchmark's corpus writer does.
            let coords: Vec<f64> = (0..dim * n)
                .map(|_| (rng.gen_range(0.0..100.0) * 1e6_f64).round() / 1e6)
                .collect();
            let points = PointSet::from_flat(dim, coords).unwrap();
            write_csv(&path, &points).unwrap();
            let back = both_read(&path, &std::fs::read(&path).unwrap()).unwrap();
            assert_eq!(back.dim(), dim);
            assert!(bits(&back) == bits(&points));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_utf8_line_is_a_parse_error_naming_it() {
        let path = temp_path("notutf8.csv");
        std::fs::write(&path, b"1,2\n3,4\n5,\xff6\n").unwrap();
        match read_csv(&path).unwrap_err() {
            CsvError::Parse { line, reason } => {
                assert_eq!(line, 3);
                assert!(reason.starts_with("not UTF-8"), "{reason}");
            }
            other => panic!("{other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dod-data-test-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn round_trip() {
        let path = temp_path("roundtrip.csv");
        let pts = PointSet::from_xy(&[(1.5, -2.25), (0.0, 1e9)]);
        write_csv(&path, &pts).unwrap();
        let back = read_csv(&path).unwrap();
        assert_eq!(back, pts);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn three_dimensional_round_trip() {
        let path = temp_path("threed.csv");
        let pts = PointSet::from_flat(3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        write_csv(&path, &pts).unwrap();
        let back = read_csv(&path).unwrap();
        assert_eq!(back, pts);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_reads_empty_set() {
        let path = temp_path("empty.csv");
        std::fs::write(&path, "").unwrap();
        let back = read_csv(&path).unwrap();
        assert!(back.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn blank_lines_skipped() {
        let path = temp_path("blank.csv");
        std::fs::write(&path, "1,2\n\n3,4\n").unwrap();
        let back = read_csv(&path).unwrap();
        assert_eq!(back.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_float_reports_line() {
        let path = temp_path("badfloat.csv");
        std::fs::write(&path, "1,2\nx,4\n").unwrap();
        let err = read_csv(&path).unwrap_err();
        assert!(matches!(err, CsvError::Parse { line: 2, .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_finite_values_report_line() {
        let path = temp_path("nonfinite.csv");
        for field in ["NaN", "-inf", "infinity"] {
            std::fs::write(&path, format!("1,2\n3,4\n{field},1.0\n")).unwrap();
            let err = read_csv(&path).unwrap_err();
            assert!(matches!(err, CsvError::Parse { line: 3, .. }), "{err}");
            assert!(err.to_string().contains("non-finite"), "{err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn inconsistent_arity_reports_line() {
        let path = temp_path("arity.csv");
        std::fs::write(&path, "1,2\n3,4,5\n").unwrap();
        let err = read_csv(&path).unwrap_err();
        assert!(matches!(err, CsvError::Parse { line: 2, .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_csv(Path::new("/definitely/not/here.csv")).unwrap_err();
        assert!(matches!(err, CsvError::Io(_)));
    }
}
