//! Opportunistic frequency boost.
//!
//! Server parts clock higher when few cores are active (thermal/power
//! headroom): a Rome-class CPU runs all-core around its calibrated
//! frequency but boosts 20–30% when most of the package idles. For scale-up
//! studies this matters because *low-utilization points of a scaling curve
//! run faster per core* — naive per-core speedup extrapolation overestimates
//! full-machine throughput.
//!
//! The model is deliberately simple: a multiplier on the nominal frequency
//! as a function of the machine-wide active-CPU fraction, flat at
//! `max_boost` below `full_boost_below` and falling linearly to 1.0 at full
//! occupancy. [`BoostModel::Flat`] (the default) disables the effect so the
//! calibrated headline experiments are boost-free; experiment E14 ablates
//! it.


/// Frequency multiplier as a function of active-core fraction.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum BoostModel {
    /// No boost: the machine always runs at nominal frequency.
    #[default]
    Flat,
    /// Linear falloff: `max_boost` below `full_boost_below` active fraction,
    /// down to 1.0 at 100% active.
    Linear {
        /// Multiplier with ≤ `full_boost_below` of CPUs active.
        max_boost: f64,
        /// Active fraction below which the full boost applies.
        full_boost_below: f64,
    },
}

impl BoostModel {
    /// A Rome-class curve: +25% when a quarter or less of the package is
    /// active, tapering to nominal at full occupancy.
    pub fn zen2_like() -> Self {
        BoostModel::Linear {
            max_boost: 1.25,
            full_boost_below: 0.25,
        }
    }

    /// The frequency multiplier at `active_fraction` (clamped to `[0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics (via debug assertion in constructor use) if a `Linear` model
    /// was built with `max_boost < 1` or a fraction outside `(0, 1)`.
    pub fn multiplier(&self, active_fraction: f64) -> f64 {
        let active = active_fraction.clamp(0.0, 1.0);
        match *self {
            BoostModel::Flat => 1.0,
            BoostModel::Linear {
                max_boost,
                full_boost_below,
            } => {
                debug_assert!(max_boost >= 1.0, "boost below nominal is not a boost");
                debug_assert!(
                    full_boost_below > 0.0 && full_boost_below < 1.0,
                    "full_boost_below must be in (0, 1)"
                );
                if active <= full_boost_below {
                    max_boost
                } else {
                    let span = 1.0 - full_boost_below;
                    let f = (active - full_boost_below) / span;
                    max_boost + (1.0 - max_boost) * f
                }
            }
        }
    }

    /// Quantizes an active fraction into one of 20 buckets; the engine only
    /// re-rates the whole machine when the bucket changes, so boost updates
    /// stay cheap.
    pub fn bucket(active_fraction: f64) -> u32 {
        (active_fraction.clamp(0.0, 1.0) * 20.0).floor() as u32
    }

    /// The multiplier at the *center* of a quantization bucket.
    pub fn multiplier_for_bucket(&self, bucket: u32) -> f64 {
        self.multiplier((bucket as f64 + 0.5) / 20.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_is_always_one() {
        let m = BoostModel::Flat;
        for f in [0.0, 0.3, 1.0] {
            assert_eq!(m.multiplier(f), 1.0);
        }
    }

    #[test]
    fn linear_boosts_idle_machines() {
        let m = BoostModel::zen2_like();
        assert_eq!(m.multiplier(0.0), 1.25);
        assert_eq!(m.multiplier(0.25), 1.25);
        assert!((m.multiplier(1.0) - 1.0).abs() < 1e-12);
        // Midpoint of the falloff.
        let mid = m.multiplier(0.625);
        assert!((mid - 1.125).abs() < 1e-12, "mid {mid}");
    }

    #[test]
    fn multiplier_is_monotone_nonincreasing() {
        let m = BoostModel::zen2_like();
        let mut last = f64::INFINITY;
        for i in 0..=100 {
            let v = m.multiplier(i as f64 / 100.0);
            assert!(v <= last + 1e-12);
            last = v;
        }
    }

    #[test]
    fn clamps_out_of_range_fractions() {
        let m = BoostModel::zen2_like();
        assert_eq!(m.multiplier(-3.0), 1.25);
        assert!((m.multiplier(7.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn buckets_quantize() {
        assert_eq!(BoostModel::bucket(0.0), 0);
        assert_eq!(BoostModel::bucket(0.049), 0);
        assert_eq!(BoostModel::bucket(0.05), 1);
        assert_eq!(BoostModel::bucket(1.0), 20);
        let m = BoostModel::zen2_like();
        assert!(m.multiplier_for_bucket(0) > m.multiplier_for_bucket(19));
    }
}
