//! Output checks shared by the workloads: the error-bound oracle and
//! bit-exact frame fingerprints.

use mdz_core::{ErrorBound, Frame};
use mdz_sim::Dataset;

/// Frames of a generated dataset, moved out of its snapshots.
pub fn frames_of(dataset: Dataset) -> Vec<Frame> {
    dataset.snapshots.into_iter().map(|s| Frame::new(s.x, s.y, s.z)).collect()
}

fn axis(frame: &Frame, a: usize) -> &[f64] {
    match a {
        0 => &frame.x,
        1 => &frame.y,
        _ => &frame.z,
    }
}

/// The absolute bound the codec resolves for each `(buffer, axis)`: a
/// value-range-relative bound is taken over that axis's values in the
/// buffer of `bs` frames.
pub fn buffer_eps(frames: &[Frame], bs: usize, bound: ErrorBound) -> Vec<[f64; 3]> {
    frames
        .chunks(bs)
        .map(|chunk| {
            std::array::from_fn(|a| {
                let flat: Vec<f64> =
                    chunk.iter().flat_map(|f| axis(f, a).iter().copied()).collect();
                bound.absolute_for(&flat)
            })
        })
        .collect()
}

/// Checks |x − x̂| ≤ ε for every value of `decoded`, whose first frame is
/// frame `first` of `original`. Non-finite inputs must round-trip bit for
/// bit. Returns the largest |x − x̂| / ε seen, or the first violation.
pub fn within_bound(
    original: &[Frame],
    decoded: &[Frame],
    first: usize,
    bs: usize,
    eps: &[[f64; 3]],
) -> Result<f64, String> {
    let mut worst = 0.0f64;
    for (k, got) in decoded.iter().enumerate() {
        let i = first + k;
        let want = original.get(i).ok_or_else(|| format!("frame {i} past the input"))?;
        if got.len() != want.len() {
            return Err(format!("frame {i}: {} atoms, expected {}", got.len(), want.len()));
        }
        for (a, &e) in eps[i / bs].iter().enumerate() {
            for (j, (&x, &y)) in axis(want, a).iter().zip(axis(got, a)).enumerate() {
                if x.is_finite() {
                    let err = (x - y).abs();
                    // A NaN error (a finite input decoded as NaN) fails too.
                    if err.is_nan() || err > e {
                        return Err(format!("frame {i} axis {a} atom {j}: |{x} - {y}| > {e}"));
                    }
                    worst = worst.max(err / e);
                } else if x.to_bits() != y.to_bits() {
                    return Err(format!("frame {i} axis {a} atom {j}: {x} decoded as {y}"));
                }
            }
        }
    }
    Ok(worst)
}

/// FNV-1a over the bit patterns of a frame's coordinates.
pub fn frame_hash(frame: &Frame) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for a in 0..3 {
        for v in axis(frame, a) {
            h = (h ^ v.to_bits()).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Per-frame fingerprints.
pub fn frame_hashes(frames: &[Frame]) -> Vec<u64> {
    frames.iter().map(frame_hash).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(n: usize) -> Vec<Frame> {
        (0..n)
            .map(|t| {
                let v: Vec<f64> = (0..4).map(|i| i as f64 + t as f64 * 0.5).collect();
                Frame::new(v.clone(), v.clone(), v)
            })
            .collect()
    }

    #[test]
    fn bound_oracle_catches_a_single_violation() {
        let orig = frames(6);
        let eps = buffer_eps(&orig, 4, ErrorBound::ValueRangeRelative(1e-3));
        let mut dec = orig.clone();
        assert_eq!(within_bound(&orig, &dec, 0, 4, &eps), Ok(0.0));
        dec[5].y[2] += 2.0 * eps[1][1];
        assert!(within_bound(&orig, &dec, 0, 4, &eps).is_err());
        // An offset slice checks against the right input frames.
        assert!(within_bound(&orig, &dec[1..3], 1, 4, &eps).is_ok());
    }

    #[test]
    fn frame_hash_sees_every_bit() {
        let f = frames(1).remove(0);
        let mut g = f.clone();
        g.z[3] = f64::from_bits(g.z[3].to_bits() ^ 1);
        assert_ne!(frame_hash(&f), frame_hash(&g));
    }
}
