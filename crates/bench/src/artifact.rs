//! The one artifact writer. Every file the experiment harness, the CLI and
//! the profiler emit goes through [`write_artifacts`]: the bytes are
//! schema-checked *before* anything touches disk, each file is written to
//! `<path>.tmp.<pid>` and renamed into place, and an I/O failure removes
//! every temporary file — a failed run can neither leave a document that
//! fails its schema nor a truncated one.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A schema check over an artifact's full text.
pub type Validator = fn(&str) -> Result<(), String>;

/// One file to write: where, what, and the schema it must satisfy.
pub struct Artifact {
    /// Final path.
    pub path: PathBuf,
    /// Full contents.
    pub body: String,
    /// Checked against `body` before any file is written.
    pub validate: Option<Validator>,
}

impl Artifact {
    /// An artifact whose schema follows from its file name: `lint.json`,
    /// `BENCH_serving.json`, `serving_trace.json`, `metrics.json` and
    /// `*.store.json` are validated, everything else is written as is.
    pub fn new(path: PathBuf, body: String) -> Self {
        let validate = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(schema_for);
        Self {
            path,
            body,
            validate,
        }
    }
}

/// The schema a named artifact must satisfy, if it has one.
fn schema_for(file_name: &str) -> Option<Validator> {
    match file_name {
        "lint.json" => Some(lsv_obs::validate_lint_json),
        "BENCH_serving.json" => Some(lsv_obs::validate_serving_json),
        "serving_trace.json" => Some(lsv_obs::validate_serving_trace_json),
        "metrics.json" => Some(lsv_obs::validate_metrics_json),
        n if n.ends_with(".store.json") => Some(lsv_obs::validate_metrics_json),
        _ => None,
    }
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    PathBuf::from(tmp)
}

/// Validate every artifact, then write each one atomically. Nothing is
/// written unless all of them validate.
pub fn write_artifacts(artifacts: &[Artifact]) -> io::Result<()> {
    for a in artifacts {
        if let Some(validate) = a.validate {
            validate(&a.body)
                .map_err(|e| io::Error::other(format!("{}: {e}", a.path.display())))?;
        }
    }
    let tmps: Vec<PathBuf> = artifacts.iter().map(|a| tmp_path(&a.path)).collect();
    let written = artifacts.iter().zip(&tmps).try_for_each(|(a, tmp)| {
        if let Some(dir) = a.path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(tmp, &a.body)
    });
    let renamed = written.and_then(|()| {
        (artifacts.iter().zip(&tmps)).try_for_each(|(a, tmp)| fs::rename(tmp, &a.path))
    });
    if renamed.is_err() {
        for tmp in &tmps {
            let _ = fs::remove_file(tmp);
        }
    }
    renamed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_schema_failure_writes_nothing() {
        let dir = std::env::temp_dir().join(format!("lsv-artifact-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let ok = Artifact::new(dir.join("serving.csv"), "a,b\n".into());
        let bad = Artifact::new(dir.join("lint.json"), "{\"not\": \"an array\"}".into());
        let err = write_artifacts(&[ok, bad]).unwrap_err();
        assert!(err.to_string().contains("lint.json"), "{err}");
        // Neither the valid sibling, the invalid file nor a .tmp exists.
        assert!(!dir.exists() || fs::read_dir(&dir).unwrap().next().is_none());
    }
}
