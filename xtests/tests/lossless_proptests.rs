//! Property-based round-trip and robustness tests for all lossless codecs.

use mdz_lossless::{fpc, fpzip_like, gorilla, lz77};
use proptest::prelude::*;

/// Arbitrary but finite-heavy f64 streams: mixes smooth, constant, and noisy.
fn f64_stream() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            4 => -1e6f64..1e6,
            1 => Just(0.0f64),
            1 => any::<f64>().prop_filter("finite", |v| v.is_finite()),
        ],
        0..400,
    )
}

proptest! {
    #[test]
    fn lz77_round_trip_random(data in prop::collection::vec(any::<u8>(), 0..4000)) {
        for level in [lz77::Level::Fast, lz77::Level::Default, lz77::Level::High] {
            let c = lz77::compress(&data, level);
            prop_assert_eq!(lz77::decompress(&c).unwrap(), data.clone());
        }
    }

    #[test]
    fn lz77_round_trip_repetitive(
        phrase in prop::collection::vec(any::<u8>(), 1..50),
        reps in 1usize..200,
    ) {
        let mut data = Vec::new();
        for _ in 0..reps {
            data.extend_from_slice(&phrase);
        }
        let c = lz77::compress(&data, lz77::Level::Default);
        prop_assert_eq!(lz77::decompress(&c).unwrap(), data);
    }

    #[test]
    fn lz77_decompress_never_panics(garbage in prop::collection::vec(any::<u8>(), 0..500)) {
        let _ = lz77::decompress(&garbage);
    }

    #[test]
    fn gorilla_bit_exact(data in f64_stream()) {
        let c = gorilla::compress(&data);
        let d = gorilla::decompress(&c).unwrap();
        prop_assert_eq!(d.len(), data.len());
        for (a, b) in data.iter().zip(d.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn fpc_bit_exact(data in f64_stream()) {
        let c = fpc::compress(&data);
        let d = fpc::decompress(&c).unwrap();
        prop_assert_eq!(d.len(), data.len());
        for (a, b) in data.iter().zip(d.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn fpzip_like_bit_exact(data in f64_stream()) {
        let c = fpzip_like::compress(&data);
        let d = fpzip_like::decompress(&c).unwrap();
        prop_assert_eq!(d.len(), data.len());
        for (a, b) in data.iter().zip(d.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn float_decoders_never_panic(garbage in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = gorilla::decompress(&garbage);
        let _ = fpc::decompress(&garbage);
        let _ = fpzip_like::decompress(&garbage);
    }
}
