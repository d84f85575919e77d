//! CSV serialization of point sets.
//!
//! The evaluation datasets live in HDFS as delimited text (the
//! OpenStreetMap extract carries `ID, timestamp, longitude, latitude`
//! rows); these helpers provide the equivalent flat-file interchange for
//! the examples and the benchmark harness.

use dod_core::{CoreError, PointSet};
use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;

/// Errors from CSV reading.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed row (bad float, non-finite value, inconsistent arity).
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

/// Reads a CSV of floating-point rows. The dimensionality is inferred
/// from the first non-empty row; all rows must agree. Every field must be
/// finite: `NaN` and the infinities are refused, as the engine refuses
/// them on a wire point.
pub fn read_csv(path: &Path) -> Result<PointSet, CsvError> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

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
