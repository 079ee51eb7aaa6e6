//! Property tests for the delta-versioned checkpoint semantics:
//!
//! 1. any pair of concurrent publishes on two nodes converges — after
//!    one pull each way both stores hold the *same* head manifest id and
//!    bit-identical tensor values (the symmetric winner/tiebreak rules
//!    commute);
//! 2. delta apply ∘ manifest diff reconstructs the full checkpoint
//!    byte-for-byte, for random subsets of changed tensors, fetching
//!    exactly the changed payloads (O(changed tensors) on the wire).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use geotorch_core::DeltaStore;
use geotorch_tensor::Tensor;
use proptest::prelude::*;

const SHAPES: [&[usize]; 4] = [&[2, 3], &[4], &[5], &[1, 2, 2]];

fn fresh_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "geotorch_delta_prop_{}_{tag}_{n}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn state_from(values: &[Vec<f32>]) -> Vec<Tensor> {
    values
        .iter()
        .zip(SHAPES)
        .map(|(v, shape)| Tensor::from_vec(v.clone(), shape))
        .collect()
}

/// Apply `delta` to the tensors named in `subset` (adding a non-zero
/// constant, so the content hash is guaranteed to change).
fn perturbed(base: &[Vec<f32>], subset: &[usize], delta: f32) -> Vec<Vec<f32>> {
    let mut out = base.to_vec();
    for &i in subset {
        for x in &mut out[i] {
            *x += delta;
        }
    }
    out
}

fn bits(state: &[Tensor]) -> Vec<Vec<u32>> {
    state
        .iter()
        .map(|t| t.as_slice().iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// One pairwise pull: `dst` integrates `src`'s head, fetching missing
/// payloads straight out of `src`'s store (the same bytes the HTTP
/// route would serve).
fn pull(dst: &mut DeltaStore, src: &DeltaStore) -> geotorch_core::IntegrateReport {
    let remote = src.head().expect("src has a head").clone();
    dst.integrate(&remote, |i, e| src.payload_bytes(i, e))
        .expect("integrate succeeds")
}

fn base_strategy() -> impl Strategy<Value = Vec<Vec<f32>>> {
    (
        prop::collection::vec(-1.0f32..1.0, 6..=6),
        prop::collection::vec(-1.0f32..1.0, 4..=4),
        prop::collection::vec(-1.0f32..1.0, 5..=5),
        prop::collection::vec(-1.0f32..1.0, 4..=4),
    )
        .prop_map(|(a, b, c, d)| vec![a, b, c, d])
}

/// Turn a generated boolean mask into the sorted list of changed
/// tensor indices.
fn indices(mask: &[bool]) -> Vec<usize> {
    mask.iter()
        .enumerate()
        .filter(|(_, &m)| m)
        .map(|(i, _)| i)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn concurrent_publishes_converge_to_the_same_head_on_both_nodes(
        base in base_strategy(),
        mask_a in prop::collection::vec(any::<bool>(), 4..=4),
        mask_b in prop::collection::vec(any::<bool>(), 4..=4),
        delta_a in 0.25f32..3.0,
        delta_b in 3.25f32..6.0,
    ) {
        let dir_a = fresh_dir("conv_a");
        let dir_b = fresh_dir("conv_b");
        {
            let mut a = DeltaStore::open(&dir_a, "m").unwrap();
            let mut b = DeltaStore::open(&dir_b, "m").unwrap();
            let base_state = state_from(&base);
            a.publish(&base_state).unwrap();
            b.publish(&base_state).unwrap();
            // Identical content published independently derives the
            // identical manifest — ids are content-addressed.
            prop_assert_eq!(&a.head().unwrap().id, &b.head().unwrap().id);

            let subset_a = indices(&mask_a);
            let subset_b = indices(&mask_b);
            a.publish(&state_from(&perturbed(&base, &subset_a, delta_a))).unwrap();
            b.publish(&state_from(&perturbed(&base, &subset_b, delta_b))).unwrap();

            // One pull each way: both nodes then hold the entrywise
            // winners of both heads, and ids are content-addressed.
            pull(&mut b, &a);
            pull(&mut a, &b);
            let head_a = a.head().unwrap();
            let head_b = b.head().unwrap();
            prop_assert_eq!(&head_a.id, &head_b.id, "heads must converge");
            prop_assert_eq!(&head_a.entries, &head_b.entries);
            prop_assert_eq!(bits(&a.materialize().unwrap()), bits(&b.materialize().unwrap()));

            // Per tensor, the winner is exactly what the symmetric rule
            // says: a tensor changed on only one side takes that side's
            // version; changed on both (ver tie) takes the smaller hash.
            for i in 0..SHAPES.len() {
                let on_a = subset_a.contains(&i);
                let on_b = subset_b.contains(&i);
                let entry = &head_a.entries[i];
                match (on_a, on_b) {
                    (false, false) => prop_assert_eq!(entry.ver, 1),
                    _ => prop_assert_eq!(entry.ver, 2),
                }
            }
        }
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn delta_apply_reconstructs_the_full_checkpoint_byte_for_byte(
        base in base_strategy(),
        mask in prop::collection::vec(any::<bool>(), 4..=4),
        delta in 0.25f32..3.0,
    ) {
        let dir_a = fresh_dir("recon_a");
        let dir_b = fresh_dir("recon_b");
        {
            let mut a = DeltaStore::open(&dir_a, "m").unwrap();
            let mut b = DeltaStore::open(&dir_b, "m").unwrap();
            let base_state = state_from(&base);
            a.publish(&base_state).unwrap();
            // B bootstraps from A: everything is fetched once.
            let report = pull(&mut b, &a);
            prop_assert_eq!(report.fetched.len(), SHAPES.len());

            let subset = indices(&mask);
            let tuned = state_from(&perturbed(&base, &subset, delta));
            let publish = a.publish(&tuned).unwrap();
            prop_assert_eq!(&publish.changed, &subset, "publish diffs exactly the subset");

            // The incremental pull fetches exactly the changed payloads
            // (delta bytes == publish bytes: O(changed tensors)), and
            // the reconstruction is bit-for-bit the published state.
            let report = pull(&mut b, &a);
            prop_assert_eq!(report.advanced || subset.is_empty(), true);
            prop_assert_eq!(&report.fetched, &subset);
            prop_assert_eq!(report.fetched_bytes, publish.delta_bytes);
            prop_assert_eq!(bits(&b.materialize().unwrap()), bits(&tuned));
            // And the stored payload files themselves are byte-identical
            // across the two nodes for every head entry.
            for (i, entry) in b.head().unwrap().entries.iter().enumerate() {
                prop_assert_eq!(a.payload_bytes(i, entry).unwrap(), b.payload_bytes(i, entry).unwrap());
            }
        }
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }
}
