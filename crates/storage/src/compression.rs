//! Lightweight compression schemes and their width models.
//!
//! The paper's DSM experiments (Figure 9) rely on columns having widely
//! different *physical* widths because of lightweight compression (PDICT,
//! PFOR, PFOR-DELTA from the authors' ICDE 2006 paper).  A [`Compression`]
//! value plays two roles:
//!
//! * **Width model** — [`Compression::physical_bits`] predicts the average
//!   bits-per-value a column stored under the scheme occupies, which is
//!   what the I/O scheduling layers (the DSM table model's page counts,
//!   relevance decisions) consume.
//! * **Codec selector** — [`crate::codec::EncodedColumn::encode`] and
//!   [`crate::chunkdata::CompressingStore`] use the same value to pick the
//!   *real* encoder, so chunk payloads actually travel as PDICT / PFOR /
//!   PFOR-DELTA bytes and decompress at first touch.  The codec tests check
//!   that real encoded sizes track this model's predictions.
//!
//! # Equality caveat
//!
//! `Compression` derives `PartialEq` over an `f32` field
//! (`exception_rate`), so it is **not** `Eq`: `NaN != NaN`, which means two
//! schemes built from a NaN rate never compare equal (and must not be used
//! as hash keys).  Use [`Compression::total_eq`] where reflexive,
//! bit-level equality is required.

use crate::schema::ColumnType;
use serde::{Deserialize, Serialize};

/// On-disk compression scheme of a column: the codec to apply, plus the
/// parameters the width model charges for it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum Compression {
    /// Stored uncompressed at the type's natural width.
    #[default]
    None,
    /// Dictionary encoding (PDICT): each value stored as a `bits`-wide code.
    Dictionary {
        /// Bits per dictionary code.
        bits: u8,
    },
    /// Patched frame-of-reference (PFOR): values stored as `bits`-wide
    /// offsets from a per-block base, with an `exception_rate` fraction of
    /// values stored uncompressed as exceptions.
    Pfor {
        /// Bits per compressed value.
        bits: u8,
        /// Fraction of values stored as full-width exceptions (0.0–1.0).
        exception_rate: f32,
    },
    /// PFOR-DELTA: like PFOR but applied to deltas of sorted/clustered data,
    /// typically yielding very small widths.
    PforDelta {
        /// Bits per compressed delta.
        bits: u8,
        /// Fraction of values stored as full-width exceptions (0.0–1.0).
        exception_rate: f32,
    },
}

impl Compression {
    /// Bit-level total equality: like `==`, but reflexive even when an
    /// `exception_rate` is NaN (compared via [`f32::to_bits`], so `NaN`
    /// equals the *same* NaN).  The derived `PartialEq` follows IEEE float
    /// semantics instead and can therefore not be `Eq`; use this helper
    /// where total equivalence matters (deduplication, cache keys).
    pub fn total_eq(&self, other: &Compression) -> bool {
        use Compression as C;
        match (*self, *other) {
            (C::None, C::None) => true,
            (C::Dictionary { bits: a }, C::Dictionary { bits: b }) => a == b,
            (
                C::Pfor {
                    bits: a,
                    exception_rate: ra,
                },
                C::Pfor {
                    bits: b,
                    exception_rate: rb,
                },
            )
            | (
                C::PforDelta {
                    bits: a,
                    exception_rate: ra,
                },
                C::PforDelta {
                    bits: b,
                    exception_rate: rb,
                },
            ) => a == b && ra.to_bits() == rb.to_bits(),
            _ => false,
        }
    }

    /// Physical width of one value, in bits, for a column of type `ty`.
    pub fn physical_bits(&self, ty: ColumnType) -> u32 {
        let natural_bits = ty.uncompressed_width() as u32 * 8;
        match *self {
            Compression::None => natural_bits,
            Compression::Dictionary { bits } => (bits as u32).min(natural_bits),
            Compression::Pfor {
                bits,
                exception_rate,
            }
            | Compression::PforDelta {
                bits,
                exception_rate,
            } => {
                // A NaN rate is treated as "no exceptions" (clamp would
                // propagate the NaN straight into the width prediction).
                let clamped = if exception_rate.is_nan() {
                    0.0
                } else {
                    exception_rate.clamp(0.0, 1.0)
                };
                let rate = clamped as f64;
                let avg = bits as f64 + rate * natural_bits as f64;
                (avg.ceil() as u32).min(natural_bits)
            }
        }
    }

    /// Compression ratio relative to the uncompressed width (1.0 = no gain).
    pub fn ratio(&self, ty: ColumnType) -> f64 {
        let natural = ty.uncompressed_width() as f64 * 8.0;
        self.physical_bits(ty) as f64 / natural
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_keeps_natural_width() {
        assert_eq!(Compression::None.physical_bits(ColumnType::Int64), 64);
        assert_eq!(Compression::None.physical_bits(ColumnType::Char), 8);
        assert_eq!(Compression::None.ratio(ColumnType::Int32), 1.0);
    }

    #[test]
    fn dictionary_width_is_code_width() {
        let c = Compression::Dictionary { bits: 2 };
        assert_eq!(c.physical_bits(ColumnType::Char), 2);
        assert_eq!(c.physical_bits(ColumnType::Int64), 2);
        assert!(c.ratio(ColumnType::Char) - 0.25 < 1e-9);
    }

    #[test]
    fn pfor_accounts_for_exceptions() {
        let no_exc = Compression::Pfor {
            bits: 21,
            exception_rate: 0.0,
        };
        assert_eq!(no_exc.physical_bits(ColumnType::Int64), 21);
        let with_exc = Compression::Pfor {
            bits: 21,
            exception_rate: 0.1,
        };
        // 21 + 0.1*64 = 27.4 -> 28 bits.
        assert_eq!(with_exc.physical_bits(ColumnType::Int64), 28);
    }

    #[test]
    fn compression_never_expands() {
        let silly = Compression::Pfor {
            bits: 60,
            exception_rate: 1.0,
        };
        assert_eq!(silly.physical_bits(ColumnType::Int32), 32);
        let dict = Compression::Dictionary { bits: 200 };
        assert_eq!(dict.physical_bits(ColumnType::Char), 8);
    }

    #[test]
    fn pfor_delta_is_typically_tiny() {
        let c = Compression::PforDelta {
            bits: 3,
            exception_rate: 0.02,
        };
        let bits = c.physical_bits(ColumnType::Int64);
        assert!((3..=6).contains(&bits), "got {bits}");
    }

    #[test]
    fn exception_rate_is_clamped() {
        let c = Compression::Pfor {
            bits: 8,
            exception_rate: 5.0,
        };
        assert_eq!(c.physical_bits(ColumnType::Int32), 32);
        let d = Compression::Pfor {
            bits: 8,
            exception_rate: -1.0,
        };
        assert_eq!(d.physical_bits(ColumnType::Int32), 8);
    }

    #[test]
    fn exception_rate_boundary_values_are_exact() {
        // Exactly 0.0: the packed width alone.
        let zero = Compression::Pfor {
            bits: 13,
            exception_rate: 0.0,
        };
        assert_eq!(zero.physical_bits(ColumnType::Int64), 13);
        // Exactly 1.0: every value is a full-width exception on top of its
        // packed slot — capped at the natural width.
        let one = Compression::PforDelta {
            bits: 13,
            exception_rate: 1.0,
        };
        assert_eq!(one.physical_bits(ColumnType::Int64), 64);
        assert_eq!(one.physical_bits(ColumnType::Char), 8);
    }

    #[test]
    fn bits_at_or_above_natural_width_cap_at_natural() {
        // `bits` equal to the natural width: nothing gained, nothing lost.
        let at = Compression::Pfor {
            bits: 32,
            exception_rate: 0.0,
        };
        assert_eq!(at.physical_bits(ColumnType::Int32), 32);
        assert!((at.ratio(ColumnType::Int32) - 1.0).abs() < 1e-9);
        // `bits` beyond the natural width: the model refuses to expand.
        let over = Compression::PforDelta {
            bits: 64,
            exception_rate: 0.5,
        };
        assert_eq!(over.physical_bits(ColumnType::Int32), 32);
    }

    #[test]
    fn zero_width_dictionary_is_a_constant_column() {
        // A 0-bit dictionary models a single-valued column: the width model
        // charges zero bits (the real codec clamps its codes to 1 bit, a
        // discrepancy the codec size tests document).
        let c = Compression::Dictionary { bits: 0 };
        assert_eq!(c.physical_bits(ColumnType::Int64), 0);
        assert_eq!(c.ratio(ColumnType::Int64), 0.0);
    }

    #[test]
    fn nan_exception_rate_and_total_eq() {
        let nan = Compression::Pfor {
            bits: 8,
            exception_rate: f32::NAN,
        };
        // Derived PartialEq follows IEEE semantics: NaN != NaN.
        #[allow(clippy::eq_op)]
        {
            assert_ne!(nan, nan);
        }
        // total_eq is reflexive (bitwise) — and NaN clamps to 0.0 in the
        // width model, so the prediction stays finite.
        assert!(nan.total_eq(&nan));
        assert_eq!(nan.physical_bits(ColumnType::Int64), 8);
        let plain = Compression::Pfor {
            bits: 8,
            exception_rate: 0.25,
        };
        assert!(plain.total_eq(&plain));
        assert!(!plain.total_eq(&nan));
        assert!(!plain.total_eq(&Compression::None));
        assert!(Compression::None.total_eq(&Compression::None));
        // Pfor and PforDelta with identical params are *different* schemes.
        let delta = Compression::PforDelta {
            bits: 8,
            exception_rate: 0.25,
        };
        assert!(!plain.total_eq(&delta));
        assert!(Compression::Dictionary { bits: 4 }.total_eq(&Compression::Dictionary { bits: 4 }));
        assert!(!Compression::Dictionary { bits: 4 }.total_eq(&Compression::Dictionary { bits: 5 }));
    }
}
