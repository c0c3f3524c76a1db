//! *CGMTranspose* — matrix transpose as a single h-relation (`λ = 1`),
//! analogous to [`crate::permute::CgmPermute`] but with the destination
//! computed from the matrix shape rather than carried as data
//! (paper Section 3.1, Group A row 3).
//!
//! A `k × ℓ` matrix stored row-major is block-distributed over the `v`
//! processors; element at global position `g = r·ℓ + c` moves to
//! position `c·k + r` of the transposed (ℓ × k, row-major) matrix.
//!
//! A message is the bare value: the receiver rebuilds each value's
//! position from the shape. Round 0 sends in ascending source position
//! `g`, and every runner hands a source's items over in send order
//! (pinned by `tests/cross_runner.rs` `send_order_is_kept_everywhere`).
//! Because the block owner is monotone in `g`, the inbox flattened in
//! source order is ascending `g`, which round 1 zips with its own
//! positions enumerated in the same order (`block_positions`).

use cgmio_model::{CgmProgram, RoundCtx, Status};

use crate::graphs::owner;
use cgmio_data::block_split_ranges;

/// State: `(local_elements, rows_k, cols_l)`; after the run the local
/// block of the transposed matrix.
pub type TransposeState = (Vec<u64>, u64, u64);

/// The CGM matrix-transpose program.
#[derive(Debug, Clone, Copy, Default)]
pub struct CgmTranspose;

impl CgmProgram for CgmTranspose {
    type Msg = u64;
    type State = TransposeState;

    fn round(&self, ctx: &mut RoundCtx<'_, u64>, state: &mut TransposeState) -> Status {
        let v = ctx.v;
        let (k, l) = (state.1 as usize, state.2 as usize);
        let n = k * l;
        let my_range = block_split_ranges(n, v, ctx.pid);
        match ctx.round {
            0 => {
                for (g, &val) in my_range.zip(&state.0) {
                    let (r, c) = (g / l, g % l);
                    ctx.push(owner(n, v, c * k + r), val);
                }
                state.0.clear();
                Status::Continue
            }
            _ => {
                debug_assert_eq!(ctx.incoming.total(), my_range.len());
                let mut out = vec![0u64; my_range.len()];
                let vals = ctx.incoming.iter_nonempty().flat_map(|(_, items)| items.iter());
                for (g2, &val) in block_positions(my_range.clone(), k).zip(vals) {
                    out[g2 - my_range.start] = val;
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

/// The transposed positions `g2 = c·k + r` in `[a, b)`, in ascending
/// source position `g = r·ℓ + c`: rows `r` ascending and, within a row,
/// the contiguous run of columns `c` whose `c·k + r` falls in the block.
/// Costs `O(b − a + rows touched)`, never `O(k)` for a short block.
fn block_positions(range: std::ops::Range<usize>, k: usize) -> impl Iterator<Item = usize> {
    let (a, b) = (range.start, range.end);
    // Rows touched, ascending: all of them once the block spans `k`
    // positions, else the residues of `[a, b)` mod `k`, which wrap at
    // most once.
    let (first, second) = if a == b {
        (0..0, 0..0)
    } else if b - a >= k {
        (0..k, 0..0)
    } else {
        let (ra, rb) = (a % k, (b - 1) % k + 1);
        if ra < rb {
            (ra..rb, 0..0)
        } else {
            (0..rb, ra..k)
        }
    };
    first.chain(second).flat_map(move |r| {
        // `c·k + r ∈ [a, b)`; a touched row has `r < b`.
        let (c_lo, c_hi) = (a.saturating_sub(r).div_ceil(k), (b - r).div_ceil(k));
        (c_lo..c_hi).map(move |c| c * k + r)
    })
}

/// Sequential reference transpose (row-major `k × ℓ` → row-major
/// `ℓ × k`).
pub fn transpose_reference(m: &[u64], k: usize, l: usize) -> Vec<u64> {
    assert_eq!(m.len(), k * l);
    let mut out = vec![0u64; k * l];
    for r in 0..k {
        for c in 0..l {
            out[c * k + r] = m[r * l + c];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgmio_data::{block_split, uniform_u64};
    use cgmio_model::{DirectRunner, ThreadedRunner};
    use cgmio_pdm::Item;

    fn init(m: &[u64], k: u64, l: u64, v: usize) -> Vec<TransposeState> {
        block_split(m.to_vec(), v).into_iter().map(|b| (b, k, l)).collect()
    }

    fn check(fin: &[TransposeState], m: &[u64], k: usize, l: usize) {
        let flat: Vec<u64> = fin.iter().flat_map(|(b, _, _)| b.iter().copied()).collect();
        assert_eq!(flat, transpose_reference(m, k, l));
    }

    #[test]
    fn transposes_rectangular() {
        let (k, l) = (37, 53);
        let m = uniform_u64(k * l, 1);
        let v = 6;
        let (fin, costs) =
            DirectRunner::default().run(&CgmTranspose, init(&m, k as u64, l as u64, v)).unwrap();
        check(&fin, &m, k, l);
        assert_eq!(costs.lambda(), 1);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let (k, l) = (16, 24);
        let m = uniform_u64(k * l, 9);
        let v = 4;
        let (fin, _) =
            DirectRunner::default().run(&CgmTranspose, init(&m, k as u64, l as u64, v)).unwrap();
        let t: Vec<u64> = fin.iter().flat_map(|(b, _, _)| b.iter().copied()).collect();
        let (fin2, _) =
            DirectRunner::default().run(&CgmTranspose, init(&t, l as u64, k as u64, v)).unwrap();
        let tt: Vec<u64> = fin2.iter().flat_map(|(b, _, _)| b.iter().copied()).collect();
        assert_eq!(tt, m);
    }

    #[test]
    fn degenerate_shapes() {
        let v = 3;
        // row vector
        let m: Vec<u64> = (0..7).collect();
        let (fin, _) = DirectRunner::default().run(&CgmTranspose, init(&m, 1, 7, v)).unwrap();
        check(&fin, &m, 1, 7);
        // column vector
        let (fin, _) = DirectRunner::default().run(&CgmTranspose, init(&m, 7, 1, v)).unwrap();
        check(&fin, &m, 7, 1);
        // 1x1
        let (fin, _) = DirectRunner::default().run(&CgmTranspose, init(&[5], 1, 1, 1)).unwrap();
        check(&fin, &[5], 1, 1);
    }

    #[test]
    fn works_on_threads() {
        let (k, l) = (40, 25);
        let m = uniform_u64(k * l, 4);
        let v = 8;
        let (fin, _) =
            ThreadedRunner::new(4).run(&CgmTranspose, init(&m, k as u64, l as u64, v)).unwrap();
        check(&fin, &m, k, l);
    }

    /// A message is the bare value; its position travels as send order.
    #[test]
    fn frame_width() {
        assert_eq!(<CgmTranspose as CgmProgram>::Msg::SIZE, 8);
    }

    /// Column and row vectors, `v ∤ n` (uneven blocks), blocks that cut
    /// rows, and `v > n` (empty blocks).
    #[test]
    fn sweep_against_reference() {
        let shapes = [(1, 1), (1, 13), (13, 1), (64, 1), (1, 64), (2, 9), (9, 2), (5, 7), (3, 40)];
        for (k, l) in shapes {
            let m = uniform_u64(k * l, (131 * k + l) as u64);
            for v in [1, 2, 3, 4, 7, 8, 16, 70] {
                let (fin, costs) = DirectRunner::default()
                    .run(&CgmTranspose, init(&m, k as u64, l as u64, v))
                    .unwrap();
                check(&fin, &m, k, l);
                assert_eq!(costs.lambda(), 1, "k={k} l={l} v={v}");
            }
        }
    }

    /// Each block's enumeration is exactly its positions, in ascending
    /// source position, the order its inbox arrives in.
    #[test]
    fn positions_follow_source_order() {
        for (k, l) in [(1, 9), (9, 1), (4, 6), (6, 4), (17, 3)] {
            let n = k * l;
            for v in [1, 2, 5, 7, 30] {
                for t in 0..v {
                    let range = block_split_ranges(n, v, t);
                    let mut want: Vec<usize> = range.clone().collect();
                    want.sort_by_key(|&g2| (g2 % k) * l + g2 / k);
                    let got: Vec<usize> = block_positions(range, k).collect();
                    assert_eq!(got, want, "k={k} l={l} v={v} t={t}");
                }
            }
        }
    }
}
