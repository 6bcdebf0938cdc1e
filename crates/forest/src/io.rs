//! Forest (de)serialization.
//!
//! JSON via serde — human-readable, diffable, and sufficient for the model
//! sizes in this reproduction. Binary device formats live in the `tahoe`
//! crate; this module is for persistence and interchange.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

use crate::forest::Forest;

/// Errors from forest persistence.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Fs(std::io::Error),
    /// Malformed forest file.
    Format(serde_json::Error),
    /// Well-formed JSON describing a forest that breaks a structural
    /// invariant ([`Forest::check`]).
    Invalid(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Fs(e) => write!(f, "filesystem error: {e}"),
            IoError::Format(e) => write!(f, "forest format error: {e}"),
            IoError::Invalid(e) => write!(f, "invalid forest: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Fs(e)
    }
}

impl From<serde_json::Error> for IoError {
    fn from(e: serde_json::Error) -> Self {
        IoError::Format(e)
    }
}

/// Saves a forest as JSON.
///
/// # Errors
///
/// Returns [`IoError`] on filesystem or serialization failure.
pub fn save_forest(forest: &Forest, path: &Path) -> Result<(), IoError> {
    let file = File::create(path)?;
    serde_json::to_writer(BufWriter::new(file), forest)?;
    Ok(())
}

/// Loads a forest from JSON and checks its invariants, which the derived
/// deserialization does not.
///
/// # Errors
///
/// Returns [`IoError`] on filesystem or deserialization failure, and
/// [`IoError::Invalid`] for a forest that fails [`Forest::check`].
pub fn load_forest(path: &Path) -> Result<Forest, IoError> {
    let file = File::open(path)?;
    let forest: Forest = serde_json::from_reader(BufReader::new(file))?;
    forest.check().map_err(IoError::Invalid)?;
    Ok(forest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Node;
    use crate::tree::Tree;
    use tahoe_datasets::{ForestKind, Task};

    fn forest() -> Forest {
        let tree = Tree::new(vec![
            Node::Decision {
                attribute: 2,
                threshold: 1.5,
                default_left: false,
                left: 1,
                right: 2,
                left_prob: 0.8,
            },
            Node::Leaf { value: -0.5 },
            Node::Leaf { value: 0.5 },
        ]);
        Forest::new(vec![tree], 3, ForestKind::RandomForest, Task::BinaryClassification, 0.0)
    }

    #[test]
    fn roundtrip_preserves_forest() {
        let dir = std::env::temp_dir().join("tahoe_forest_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("forest.json");
        let f = forest();
        save_forest(&f, &path).unwrap();
        let loaded = load_forest(&path).unwrap();
        assert_eq!(f, loaded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_is_fs_error() {
        let err = load_forest(Path::new("/nonexistent/forest.json")).unwrap_err();
        assert!(matches!(err, IoError::Fs(_)));
        assert!(err.to_string().contains("filesystem"));
    }

    /// Loads `text` as a forest file.
    fn load_text(name: &str, text: &str) -> Result<Forest, IoError> {
        let dir = std::env::temp_dir().join("tahoe_forest_io_invalid");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        let loaded = load_forest(&path);
        std::fs::remove_file(&path).ok();
        loaded
    }

    #[test]
    fn load_rejects_forests_that_break_an_invariant() {
        let valid = serde_json::to_string(&forest()).unwrap();
        assert!(load_text("valid.json", &valid).is_ok());
        for (name, from, to, expected) in [
            ("child_range.json", "\"left\":1,", "\"left\":5,", "child id out of range"),
            ("cycle.json", "\"left\":1,", "\"left\":0,", "must point forward"),
            ("shared_child.json", "\"left\":1,", "\"left\":2,", "node 2 has two parents"),
            ("attribute.json", "\"attribute\":2,", "\"attribute\":99,", "attribute 99"),
            ("threshold.json", "\"threshold\":1.5,", "\"threshold\":1e39,", "threshold inf"),
            ("leaf.json", "\"value\":-0.5", "\"value\":-1e39", "non-finite leaf value -inf"),
            ("left_prob.json", "\"left_prob\":0.8", "\"left_prob\":1e39", "left_prob inf outside"),
            ("negative_prob.json", "\"left_prob\":0.8", "\"left_prob\":-0.25", "left_prob -0.25"),
        ] {
            let broken = valid.replacen(from, to, 1);
            assert_ne!(broken, valid, "{name}: the edit applies");
            let err = load_text(name, &broken).unwrap_err();
            assert!(matches!(err, IoError::Invalid(_)), "{name}: {err:?}");
            let text = err.to_string();
            assert!(text.starts_with("invalid forest: tree 0"), "{name}: {text}");
            assert!(text.contains(expected), "{name}: {text}");
        }
        let no_nodes = r#"{"trees":[{"nodes":[]}],"n_attributes":3,"kind":"RandomForest","task":"BinaryClassification","base_score":0.0}"#;
        let err = load_text("no_nodes.json", no_nodes).unwrap_err();
        assert!(err.to_string().contains("at least one node"), "{err}");
        let no_trees = r#"{"trees":[],"n_attributes":3,"kind":"RandomForest","task":"BinaryClassification","base_score":0.0}"#;
        let err = load_text("no_trees.json", no_trees).unwrap_err();
        assert!(err.to_string().contains("at least one tree"), "{err}");
    }

    #[test]
    fn load_garbage_is_format_error() {
        let dir = std::env::temp_dir().join("tahoe_forest_io_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        std::fs::write(&path, b"not json at all {{{").unwrap();
        let err = load_forest(&path).unwrap_err();
        assert!(matches!(err, IoError::Format(_)));
        std::fs::remove_file(&path).ok();
    }
}
