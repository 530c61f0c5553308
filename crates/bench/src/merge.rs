//! `bench-merge` — folds the repo's recorded benchmark files into one
//! machine-readable trajectory blob.
//!
//! The repo accumulates one recorded-benchmark JSON per performance tier
//! (`BENCH_rrsets.json`, `BENCH_scale.json`, `BENCH_serve.json`, …). Each
//! is self-describing but separate, which makes trajectory questions ("did
//! the sampler regress between PRs?") a multi-file scavenger hunt. This
//! step embeds them verbatim — they are already valid JSON — into a single
//! `target/experiments/bench_trajectory.json` keyed by component, with an
//! explicit `missing` list instead of silent omission.

use std::path::{Path, PathBuf};

use crate::report::out_dir;

/// The recorded-benchmark components folded into the trajectory blob, in
/// (key, repo-root filename) form.
const COMPONENTS: [(&str, &str); 3] = [
    ("rrsets", "BENCH_rrsets.json"),
    ("scale", "BENCH_scale.json"),
    ("serve", "BENCH_serve.json"),
];

/// Walks upward from the working directory to the workspace root (the
/// nearest ancestor holding a recorded benchmark or a workspace manifest),
/// so the merge works from any crate directory.
fn repo_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if COMPONENTS.iter().any(|(_, f)| dir.join(f).is_file()) || dir.join("Cargo.lock").is_file()
        {
            return dir;
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

/// Re-indents a JSON document one level so it nests readably as a value.
fn indent(json: &str) -> String {
    json.trim_end()
        .lines()
        .enumerate()
        .map(|(i, l)| {
            if i == 0 {
                l.to_string()
            } else {
                format!("    {l}")
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Builds the trajectory blob from the component files under `root`.
/// Returns `(json, missing)`.
fn merged(root: &Path) -> (String, Vec<&'static str>) {
    let mut parts: Vec<String> = Vec::new();
    let mut missing: Vec<&'static str> = Vec::new();
    for (key, file) in COMPONENTS {
        match std::fs::read_to_string(root.join(file)) {
            Ok(s) => parts.push(format!("    \"{key}\": {}", indent(&s))),
            Err(_) => {
                missing.push(file);
                parts.push(format!("    \"{key}\": null"));
            }
        }
    }
    let missing_json = missing
        .iter()
        .map(|f| format!("\"{f}\""))
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        concat!(
            "{{\n",
            "  \"description\": \"Merged recorded-benchmark trajectory: every BENCH_*.json of ",
            "the repo embedded verbatim, one blob for cross-tier regression tracking. ",
            "Regenerate with `experiments bench-merge`.\",\n",
            "  \"missing\": [{missing}],\n",
            "  \"components\": {{\n{parts}\n  }}\n",
            "}}\n"
        ),
        missing = missing_json,
        parts = parts.join(",\n"),
    );
    (json, missing)
}

/// Runs the merge step and writes the blob under `target/experiments/`,
/// creating the directory when it does not exist yet. A failure to create
/// the directory or write the blob is returned, not a panic.
pub fn bench_merge() -> std::io::Result<()> {
    let root = repo_root();
    let (json, missing) = merged(&root);
    for f in &missing {
        eprintln!("[bench-merge] missing component (embedded as null): {f}");
    }
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("bench_trajectory.json");
    std::fs::write(&path, &json)?;
    println!(
        "[bench-merge] folded {} of {} components from {} into {}",
        COMPONENTS.len() - missing.len(),
        COMPONENTS.len(),
        root.display(),
        path.display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_embeds_present_components_and_nulls_missing_ones() {
        let dir = std::env::temp_dir().join(format!("bench-merge-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("BENCH_rrsets.json"), "{\n  \"a\": 1\n}\n").unwrap();
        let (json, missing) = merged(&dir);
        assert_eq!(missing, vec!["BENCH_scale.json", "BENCH_serve.json"]);
        assert!(json.contains("\"rrsets\": {"));
        assert!(json.contains("\"a\": 1"));
        assert!(json.contains("\"scale\": null"));
        assert!(json.contains("\"serve\": null"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn live_repo_components_merge_as_valid_nesting() {
        // On the real repo root every committed BENCH file must embed; the
        // blob must balance braces (cheap structural sanity without a JSON
        // parser in the workspace).
        let root = repo_root();
        let (json, _) = merged(&root);
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "unbalanced trajectory blob");
        assert!(json.contains("\"components\""));
    }
}
