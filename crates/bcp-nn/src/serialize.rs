//! JSON state-dict save/load for trained networks.
//!
//! The state dict keys parameters by `"<layer>.<param>"` and additionally
//! carries batch-norm running statistics (which are state, not parameters).
//! JSON keeps checkpoints human-inspectable; the *deployed* binarized
//! weights persist as a `bcp_finn::image::PipelineImage` instead.

use crate::batchnorm::BatchNorm;
use crate::layer::Layer;
use crate::sequential::Sequential;
use bcp_tensor::{Shape, Tensor};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Serialized tensor: shape + flat data.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct TensorState {
    /// Dimension extents.
    pub shape: Vec<usize>,
    /// Row-major values.
    pub data: Vec<f32>,
}

impl From<&Tensor> for TensorState {
    fn from(t: &Tensor) -> Self {
        TensorState {
            shape: t.shape().dims().to_vec(),
            data: t.as_slice().to_vec(),
        }
    }
}

impl TensorState {
    /// Rebuild the tensor.
    pub fn to_tensor(&self) -> Tensor {
        Tensor::from_vec(Shape(self.shape.clone()), self.data.clone())
    }
}

/// Batch-norm running statistics.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct BnStats {
    /// Running mean per channel.
    pub mean: Vec<f32>,
    /// Running (biased) variance per channel.
    pub var: Vec<f32>,
}

/// A complete network checkpoint.
#[derive(Clone, Debug, Serialize, Deserialize, Default, PartialEq)]
pub struct StateDict {
    /// `"<layer>.<param>"` → tensor.
    pub params: BTreeMap<String, TensorState>,
    /// `"<layer>"` → running statistics for batch-norm layers.
    pub bn_stats: BTreeMap<String, BnStats>,
}

/// Extract a checkpoint from a network.
pub fn state_dict(net: &mut Sequential) -> StateDict {
    let mut sd = StateDict::default();
    net.visit_named_params(&mut |layer, p| {
        sd.params
            .insert(format!("{layer}.{}", p.name), TensorState::from(&p.value));
    });
    for i in 0..net.len() {
        if let Some(bn) = net.layer_as::<BatchNorm>(i) {
            sd.bn_stats.insert(
                bn.name().to_string(),
                BnStats {
                    mean: bn.running_mean().to_vec(),
                    var: bn.running_var().to_vec(),
                },
            );
        }
    }
    sd
}

/// Everything that can go wrong loading or saving a checkpoint. Structural
/// errors carry enough context to name the offending entry, so callers can
/// distinguish "wrong architecture" from "corrupt file" from "disk trouble"
/// without string-matching.
#[derive(Debug)]
pub enum CheckpointError {
    /// The network has a parameter the state dict does not.
    MissingParameter {
        /// `"<layer>.<param>"` key of the absent entry.
        key: String,
    },
    /// A stored tensor's shape disagrees with the network's parameter.
    ShapeMismatch {
        /// `"<layer>.<param>"` key (or `"<layer>"` for bn statistics).
        key: String,
        /// Shape the network expects.
        expected: Vec<usize>,
        /// Shape found in the state dict.
        found: Vec<usize>,
    },
    /// The network has a batch-norm layer with no stored running stats.
    MissingBnStats {
        /// Name of the batch-norm layer.
        layer: String,
    },
    /// Filesystem failure reading or writing the checkpoint.
    Io(std::io::Error),
    /// The file exists but is not a valid JSON state dict.
    Parse(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::MissingParameter { key } => {
                write!(f, "state dict missing parameter '{key}'")
            }
            CheckpointError::ShapeMismatch {
                key,
                expected,
                found,
            } => write!(
                f,
                "state dict shape mismatch for '{key}': expected {expected:?}, found {found:?}"
            ),
            CheckpointError::MissingBnStats { layer } => {
                write!(f, "state dict missing bn stats for '{layer}'")
            }
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Parse(msg) => write!(f, "checkpoint parse error: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Load a checkpoint into a structurally-matching network, all-or-nothing:
/// the whole dict is validated against the network *before* any parameter
/// is touched, so an `Err` leaves the network exactly as it was.
pub fn try_load_state_dict(net: &mut Sequential, sd: &StateDict) -> Result<(), CheckpointError> {
    // Pass 1: validate every parameter and bn-stat entry without mutating.
    let mut first_err: Option<CheckpointError> = None;
    net.visit_named_params(&mut |layer, p| {
        if first_err.is_some() {
            return;
        }
        let key = format!("{layer}.{}", p.name);
        match sd.params.get(&key) {
            None => first_err = Some(CheckpointError::MissingParameter { key }),
            Some(entry) => {
                if entry.shape != p.value.shape().dims() {
                    first_err = Some(CheckpointError::ShapeMismatch {
                        key,
                        expected: p.value.shape().dims().to_vec(),
                        found: entry.shape.clone(),
                    });
                }
            }
        }
    });
    if let Some(e) = first_err {
        return Err(e);
    }
    for i in 0..net.len() {
        let name = net.layer(i).name().to_string();
        if let Some(bn) = net.layer_as::<BatchNorm>(i) {
            let channels = bn.gamma().len();
            let stats = sd
                .bn_stats
                .get(&name)
                .ok_or(CheckpointError::MissingBnStats {
                    layer: name.clone(),
                })?;
            if stats.mean.len() != channels || stats.var.len() != channels {
                return Err(CheckpointError::ShapeMismatch {
                    key: name,
                    expected: vec![channels],
                    found: vec![stats.mean.len(), stats.var.len()],
                });
            }
        }
    }

    // Pass 2: apply. Nothing below can fail.
    net.visit_named_params(&mut |layer, p| {
        let key = format!("{layer}.{}", p.name);
        p.value = sd.params[&key].to_tensor();
        p.opt_state.clear();
    });
    for i in 0..net.len() {
        let name = net.layer(i).name().to_string();
        if let Some(bn) = net.layer_as_mut::<BatchNorm>(i) {
            let stats = &sd.bn_stats[&name];
            let gamma = bn.gamma().to_vec();
            let beta = bn.beta().to_vec();
            bn.set_state(gamma, beta, stats.mean.clone(), stats.var.clone());
        }
    }
    Ok(())
}

/// Panicking convenience wrapper over [`try_load_state_dict`] — checkpoints
/// are only valid for the architecture that produced them, so a mismatch is
/// a programming error in most call sites.
pub fn load_state_dict(net: &mut Sequential, sd: &StateDict) {
    if let Err(e) = try_load_state_dict(net, sd) {
        panic!("{e}");
    }
}

/// Save a checkpoint as JSON. The write is atomic-by-rename: the JSON is
/// written to a `.tmp` sibling and renamed into place, so a crash mid-save
/// never leaves a truncated checkpoint at `path`.
pub fn save_json(net: &mut Sequential, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    let path = path.as_ref();
    let sd = state_dict(net);
    let json = serde_json::to_string(&sd).expect("state dict serializes");
    let tmp = match path.file_name() {
        Some(name) => {
            let mut n = name.to_os_string();
            n.push(".tmp");
            path.with_file_name(n)
        }
        None => {
            return Err(CheckpointError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("checkpoint path '{}' has no file name", path.display()),
            )))
        }
    };
    fs::write(&tmp, json)?;
    fs::rename(&tmp, path).inspect_err(|_| {
        fs::remove_file(&tmp).ok();
    })?;
    Ok(())
}

/// Load a JSON checkpoint into a network (all-or-nothing, like
/// [`try_load_state_dict`]).
pub fn load_json(net: &mut Sequential, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    let json = fs::read_to_string(path)?;
    let sd: StateDict =
        serde_json::from_str(&json).map_err(|e| CheckpointError::Parse(e.to_string()))?;
    try_load_state_dict(net, &sd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::SignSte;
    use crate::linear::Linear;
    use crate::weight::WeightForm;
    use crate::Mode;
    use bcp_tensor::init::uniform;

    fn net(seed: u64) -> Sequential {
        Sequential::new("ckpt")
            .push(Linear::new("fc1", 4, 8, WeightForm::Float, true, seed))
            .push(BatchNorm::new("bn1", 8))
            .push(SignSte::new("sign1"))
            .push(Linear::new("bfc2", 8, 3, WeightForm::Sign, false, seed + 1))
    }

    #[test]
    fn roundtrip_preserves_outputs() {
        let mut a = net(1);
        // Run a train pass so running stats are non-trivial.
        let x = uniform(Shape::d2(16, 4), -1.0, 1.0, 2);
        let _ = a.forward(&x, Mode::Train);
        let sd = state_dict(&mut a);

        let mut b = net(99); // different init
        load_state_dict(&mut b, &sd);
        let probe = uniform(Shape::d2(5, 4), -1.0, 1.0, 3);
        let ya = a.forward(&probe, Mode::Eval);
        let yb = b.forward(&probe, Mode::Eval);
        assert_eq!(ya.as_slice(), yb.as_slice());
    }

    #[test]
    fn state_dict_has_expected_keys() {
        let mut n = net(1);
        let sd = state_dict(&mut n);
        assert!(sd.params.contains_key("fc1.weight"));
        assert!(sd.params.contains_key("fc1.bias"));
        assert!(sd.params.contains_key("bn1.gamma"));
        assert!(sd.params.contains_key("bfc2.weight"));
        assert!(sd.bn_stats.contains_key("bn1"));
        assert_eq!(sd.bn_stats["bn1"].mean.len(), 8);
    }

    #[test]
    fn json_file_roundtrip() {
        let dir = std::env::temp_dir().join("bcp_nn_ser_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let mut a = net(7);
        save_json(&mut a, &path).unwrap();
        let mut b = net(8);
        load_json(&mut b, &path).unwrap();
        let probe = uniform(Shape::d2(2, 4), -1.0, 1.0, 5);
        assert_eq!(
            a.forward(&probe, Mode::Eval).as_slice(),
            b.forward(&probe, Mode::Eval).as_slice()
        );
        fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "missing parameter")]
    fn load_rejects_structural_mismatch() {
        let mut a = net(1);
        let sd = state_dict(&mut a);
        let mut other =
            Sequential::new("other").push(Linear::new("zzz", 4, 4, WeightForm::Float, false, 0));
        load_state_dict(&mut other, &sd);
    }

    #[test]
    fn try_load_reports_typed_errors_and_leaves_net_untouched() {
        let mut a = net(1);
        let mut sd = state_dict(&mut a);

        // Missing key.
        let mut other =
            Sequential::new("other").push(Linear::new("zzz", 4, 4, WeightForm::Float, false, 0));
        match try_load_state_dict(&mut other, &sd) {
            Err(CheckpointError::MissingParameter { key }) => assert_eq!(key, "zzz.weight"),
            other => panic!("expected MissingParameter, got {other:?}"),
        }

        // Shape mismatch — and the target network must be unchanged.
        let bad = TensorState {
            shape: vec![2, 2],
            data: vec![0.0; 4],
        };
        sd.params.insert("fc1.weight".into(), bad);
        let mut b = net(3);
        let before = state_dict(&mut b);
        match try_load_state_dict(&mut b, &sd) {
            Err(CheckpointError::ShapeMismatch {
                key,
                expected,
                found,
            }) => {
                assert_eq!(key, "fc1.weight");
                assert_eq!(expected, vec![8, 4]);
                assert_eq!(found, vec![2, 2]);
            }
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
        assert_eq!(state_dict(&mut b), before, "failed load must not mutate");

        // Missing bn stats.
        let mut sd2 = state_dict(&mut net(1));
        sd2.bn_stats.clear();
        match try_load_state_dict(&mut net(2), &sd2) {
            Err(CheckpointError::MissingBnStats { layer }) => assert_eq!(layer, "bn1"),
            other => panic!("expected MissingBnStats, got {other:?}"),
        }
    }

    #[test]
    fn load_json_distinguishes_io_and_parse_errors() {
        let dir = std::env::temp_dir().join("bcp_nn_ser_err_test");
        fs::create_dir_all(&dir).unwrap();
        let mut n = net(1);
        match load_json(&mut n, dir.join("absent.json")) {
            Err(CheckpointError::Io(_)) => {}
            other => panic!("expected Io, got {other:?}"),
        }
        let garbled = dir.join("garbled.json");
        fs::write(&garbled, b"{\"params\": nope").unwrap();
        match load_json(&mut n, &garbled) {
            Err(CheckpointError::Parse(_)) => {}
            other => panic!("expected Parse, got {other:?}"),
        }
        fs::remove_file(&garbled).ok();
    }

    #[test]
    fn save_json_is_atomic_by_rename() {
        let dir = std::env::temp_dir().join("bcp_nn_ser_atomic_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let mut a = net(4);
        save_json(&mut a, &path).unwrap();
        // No temp residue, and the saved file loads.
        assert!(!path.with_file_name("ckpt.json.tmp").exists());
        let mut b = net(5);
        load_json(&mut b, &path).unwrap();
        let probe = uniform(Shape::d2(2, 4), -1.0, 1.0, 5);
        assert_eq!(
            a.forward(&probe, Mode::Eval).as_slice(),
            b.forward(&probe, Mode::Eval).as_slice()
        );
        fs::remove_file(&path).ok();
    }
}
