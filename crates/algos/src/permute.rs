//! Algorithm 4 — *CGMPermute*: perform an arbitrary permutation in one
//! h-relation (`λ = 1`), beating the PDM permutation lower bound in the
//! coarse-grained parameter range (paper Section 3.1).
//!
//! Input convention: processor `i` holds the `i`-th block of the value
//! vector `V` and the corresponding block of the index vector `P`
//! (`P[g]` = destination position of `V[g]`). Output: processor `i`
//! holds the `i`-th block of the permuted vector.

use cgmio_model::{CgmProgram, RoundCtx, Status};

use crate::graphs::owner;
use cgmio_data::block_split_ranges;

/// State: `(values, dest_indices, n_total)` before the exchange; the
/// permuted local block afterwards (with `dest_indices` emptied).
pub type PermuteState = (Vec<u64>, Vec<u64>, u64);

/// The CGM permutation program. A message is `(offset, value)`, 12
/// bytes: `offset` is the destination position minus the start of the
/// receiving processor's block, so no block may hold more than
/// `u32::MAX` items (round 0 asserts `⌈n/v⌉ ≤ u32::MAX`).
#[derive(Debug, Clone, Copy, Default)]
pub struct CgmPermute;

impl CgmProgram for CgmPermute {
    type Msg = (u32, u64);
    type State = PermuteState;

    fn round(&self, ctx: &mut RoundCtx<'_, (u32, u64)>, state: &mut PermuteState) -> Status {
        let v = ctx.v;
        let n = state.2 as usize;
        match ctx.round {
            0 => {
                assert!(
                    n.div_ceil(v) <= u32::MAX as usize,
                    "CgmPermute: a block of {} items cannot be addressed by a u32 offset",
                    n.div_ceil(v)
                );
                debug_assert_eq!(state.0.len(), state.1.len());
                for (&val, &dst) in state.0.iter().zip(&state.1) {
                    let o = owner(n, v, dst as usize);
                    let off = dst as usize - block_split_ranges(n, v, o).start;
                    ctx.push(o, (off as u32, val));
                }
                state.0.clear();
                state.1.clear();
                Status::Continue
            }
            _ => {
                let mut out = vec![0u64; block_split_ranges(n, v, ctx.pid).len()];
                for (_src, items) in ctx.incoming.iter_nonempty() {
                    for &(off, val) in items {
                        out[off as usize] = val;
                    }
                }
                state.0 = out;
                Status::Done
            }
        }
    }

    fn rounds_hint(&self, _v: usize) -> Option<usize> {
        Some(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgmio_data::{block_split, random_permutation, uniform_u64};
    use cgmio_model::{DirectRunner, ThreadedRunner};
    use cgmio_pdm::Item;

    fn init(vals: &[u64], perm: &[u64], v: usize) -> Vec<PermuteState> {
        let n = vals.len() as u64;
        block_split(vals.to_vec(), v)
            .into_iter()
            .zip(block_split(perm.to_vec(), v))
            .map(|(vb, pb)| (vb, pb, n))
            .collect()
    }

    fn check(fin: &[PermuteState], vals: &[u64], perm: &[u64]) {
        let flat: Vec<u64> = fin.iter().flat_map(|(b, _, _)| b.iter().copied()).collect();
        let mut want = vec![0u64; vals.len()];
        for (i, &p) in perm.iter().enumerate() {
            want[p as usize] = vals[i];
        }
        assert_eq!(flat, want);
    }

    #[test]
    fn permutes_random_input() {
        let n = 3001;
        let v = 7;
        let vals = uniform_u64(n, 1);
        let perm = random_permutation(n, 2);
        let (fin, costs) = DirectRunner::default().run(&CgmPermute, init(&vals, &perm, v)).unwrap();
        check(&fin, &vals, &perm);
        assert_eq!(costs.lambda(), 1, "permutation is a single h-relation");
        assert!(costs.max_h() <= 2 * n / v + 2);
    }

    #[test]
    fn identity_and_reverse() {
        let n = 64;
        let v = 4;
        let vals: Vec<u64> = (100..100 + n as u64).collect();
        let ident: Vec<u64> = (0..n as u64).collect();
        let (fin, _) = DirectRunner::default().run(&CgmPermute, init(&vals, &ident, v)).unwrap();
        check(&fin, &vals, &ident);
        let rev: Vec<u64> = (0..n as u64).rev().collect();
        let (fin, _) = DirectRunner::default().run(&CgmPermute, init(&vals, &rev, v)).unwrap();
        check(&fin, &vals, &rev);
    }

    #[test]
    fn works_on_threads() {
        let n = 1000;
        let v = 8;
        let vals = uniform_u64(n, 5);
        let perm = random_permutation(n, 6);
        let (fin, _) = ThreadedRunner::new(4).run(&CgmPermute, init(&vals, &perm, v)).unwrap();
        check(&fin, &vals, &perm);
    }

    #[test]
    fn uneven_blocks() {
        let n = 10;
        let v = 4; // blocks of 3,3,2,2
        let vals: Vec<u64> = (0..10).collect();
        let perm = random_permutation(n, 3);
        let (fin, _) = DirectRunner::default().run(&CgmPermute, init(&vals, &perm, v)).unwrap();
        check(&fin, &vals, &perm);
        assert_eq!(fin[0].0.len(), 3);
        assert_eq!(fin[3].0.len(), 2);
    }

    /// A message is a 4-byte block offset and the 8-byte value.
    #[test]
    fn frame_width() {
        assert_eq!(<CgmPermute as CgmProgram>::Msg::SIZE, 12);
    }

    /// Uneven blocks: an offset is taken against the *destination's*
    /// block start, which differs from the sender's whenever `v ∤ n`.
    #[test]
    fn uneven_sweep() {
        for n in [1, 5, 10, 31, 97, 1000] {
            let vals = uniform_u64(n, n as u64);
            for (i, v) in [2, 3, 5, 7, 16, 40].into_iter().enumerate() {
                let perm = random_permutation(n, (n + i) as u64);
                let (fin, costs) =
                    DirectRunner::default().run(&CgmPermute, init(&vals, &perm, v)).unwrap();
                check(&fin, &vals, &perm);
                assert_eq!(costs.lambda(), 1, "n={n} v={v}");
            }
        }
    }
}
