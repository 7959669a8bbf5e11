//! Normalized headings and validated antenna beamwidths.

use std::error::Error;
use std::f64::consts::{PI, TAU};
use std::fmt;
use std::ops::{Add, Neg, Sub};

/// A heading on the plane, normalized to the half-open interval `(-π, π]`.
///
/// Angles are measured counter-clockwise from the positive x-axis, matching
/// the convention of [`f64::atan2`].
///
/// # Example
///
/// ```
/// use dirca_geometry::Angle;
///
/// let a = Angle::from_degrees(350.0);
/// assert!((a.degrees() - -10.0).abs() < 1e-9);
/// let b = a + Angle::from_degrees(20.0);
/// assert!((b.degrees() - 10.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Angle {
    radians: f64,
}

impl Angle {
    /// The zero angle (positive x-axis).
    pub const ZERO: Angle = Angle { radians: 0.0 };

    /// Creates an angle from radians, normalizing into `(-π, π]`.
    pub fn from_radians(radians: f64) -> Self {
        Angle {
            radians: normalize_radians(radians),
        }
    }

    /// Creates an angle from degrees, normalizing into `(-180°, 180°]`.
    pub fn from_degrees(degrees: f64) -> Self {
        Self::from_radians(degrees.to_radians())
    }

    /// The normalized value in radians, in `(-π, π]`.
    pub fn radians(self) -> f64 {
        self.radians
    }

    /// The normalized value in degrees, in `(-180, 180]`.
    pub fn degrees(self) -> f64 {
        self.radians.to_degrees()
    }

    /// Absolute angular separation from `other`, in `[0, π]`.
    ///
    /// This is the quantity compared against half the beamwidth when deciding
    /// whether a direction falls inside an antenna beam.
    pub fn separation(self, other: Angle) -> f64 {
        let d = (self.radians - other.radians).abs();
        // `d % TAU == d` exactly when `d < TAU`, which holds for nearly
        // every pair of normalized headings: skip the fmod there.
        let d = if d < TAU { d } else { d % TAU };
        if d > PI {
            TAU - d
        } else {
            d
        }
    }

    /// The heading pointing the opposite way.
    pub fn opposite(self) -> Angle {
        Angle::from_radians(self.radians + PI)
    }
}

impl fmt::Display for Angle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}°", self.degrees())
    }
}

impl Add for Angle {
    type Output = Angle;
    fn add(self, rhs: Angle) -> Angle {
        Angle::from_radians(self.radians + rhs.radians)
    }
}

impl Sub for Angle {
    type Output = Angle;
    fn sub(self, rhs: Angle) -> Angle {
        Angle::from_radians(self.radians - rhs.radians)
    }
}

impl Neg for Angle {
    type Output = Angle;
    fn neg(self) -> Angle {
        Angle::from_radians(-self.radians)
    }
}

fn normalize_radians(mut r: f64) -> f64 {
    if r > -PI && r <= PI {
        // Already in range: `r % TAU == r` exactly for |r| < TAU, so the
        // wrap below would hand `r` back unchanged.
        return r;
    }
    if !r.is_finite() {
        // Propagate NaN; callers validating input should never reach this.
        return f64::NAN;
    }
    r %= TAU;
    if r <= -PI {
        r += TAU;
    } else if r > PI {
        r -= TAU;
    }
    r
}

/// An antenna beamwidth θ, validated to lie in `(0, 2π]`.
///
/// The paper sweeps θ from 15° to 180°; 360° (`2π`) degenerates to an
/// omni-directional pattern and is allowed so that the directional formulas
/// can be checked against their omni-directional limits.
///
/// # Example
///
/// ```
/// use dirca_geometry::Beamwidth;
///
/// let theta = Beamwidth::from_degrees(30.0)?;
/// assert!((theta.fraction_of_circle() - 30.0 / 360.0).abs() < 1e-12);
/// assert!(Beamwidth::from_degrees(0.0).is_err());
/// assert!(Beamwidth::from_degrees(400.0).is_err());
/// # Ok::<(), dirca_geometry::BeamwidthError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Beamwidth {
    radians: f64,
}

/// Error returned when constructing a [`Beamwidth`] outside `(0, 2π]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeamwidthError {
    _priv: (),
}

impl fmt::Display for BeamwidthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "beamwidth must lie in (0, 2π] radians")
    }
}

impl Error for BeamwidthError {}

impl Beamwidth {
    /// The full circle (omni-directional pattern expressed as a beamwidth).
    pub const OMNI: Beamwidth = Beamwidth { radians: TAU };

    /// Creates a beamwidth from radians.
    ///
    /// # Errors
    ///
    /// Returns [`BeamwidthError`] unless `0 < radians <= 2π`.
    pub fn from_radians(radians: f64) -> Result<Self, BeamwidthError> {
        if radians.is_finite() && radians > 0.0 && radians <= TAU + 1e-12 {
            Ok(Beamwidth {
                radians: radians.min(TAU),
            })
        } else {
            Err(BeamwidthError { _priv: () })
        }
    }

    /// Creates a beamwidth from degrees.
    ///
    /// # Errors
    ///
    /// Returns [`BeamwidthError`] unless `0 < degrees <= 360`.
    pub fn from_degrees(degrees: f64) -> Result<Self, BeamwidthError> {
        Self::from_radians(degrees.to_radians())
    }

    /// The beamwidth in radians, in `(0, 2π]`.
    pub fn radians(self) -> f64 {
        self.radians
    }

    /// The beamwidth in degrees, in `(0, 360]`.
    pub fn degrees(self) -> f64 {
        self.radians.to_degrees()
    }

    /// Half of the beamwidth in radians — the maximum angular separation
    /// from boresight that is still covered.
    pub fn half_radians(self) -> f64 {
        self.radians / 2.0
    }

    /// θ / 2π — the fraction of the full circle covered by the beam.
    ///
    /// In the analytical model this scales both sector areas and the
    /// probability `p' = p·θ/2π` that a random transmission points at a
    /// particular victim.
    pub fn fraction_of_circle(self) -> f64 {
        self.radians / TAU
    }

    /// Whether this beamwidth is the degenerate omni-directional pattern.
    pub fn is_omni(self) -> bool {
        self.radians >= TAU
    }

    /// Whether a direction separated from boresight by `separation` radians
    /// (in `[0, π]`) is inside the beam.
    pub fn covers_separation(self, separation: f64) -> bool {
        separation <= self.half_radians() + 1e-12
    }

    /// Whether a beam with this aperture aimed at `boresight` covers the
    /// direction `bearing` — the angular half of [`crate::Sector::contains`],
    /// for callers that already hold the bearing.
    pub fn covers_bearing(self, boresight: Angle, bearing: Angle) -> bool {
        self.covers_separation(boresight.separation(bearing))
    }
}

impl fmt::Display for Beamwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "θ={:.1}°", self.degrees())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_wraps_into_half_open_interval() {
        assert!((Angle::from_degrees(540.0).degrees() - 180.0).abs() < 1e-9);
        assert!((Angle::from_degrees(-540.0).degrees() - 180.0).abs() < 1e-9);
        assert!((Angle::from_degrees(720.0).degrees()).abs() < 1e-9);
    }

    #[test]
    fn negative_pi_maps_to_positive_pi() {
        let a = Angle::from_radians(-PI);
        assert!((a.radians() - PI).abs() < 1e-12);
    }

    #[test]
    fn separation_is_symmetric_and_bounded() {
        let a = Angle::from_degrees(170.0);
        let b = Angle::from_degrees(-170.0);
        assert!((a.separation(b) - 20.0_f64.to_radians()).abs() < 1e-9);
        assert!((b.separation(a) - a.separation(b)).abs() < 1e-12);
    }

    #[test]
    fn separation_of_opposites_is_pi() {
        let a = Angle::from_degrees(45.0);
        assert!((a.separation(a.opposite()) - PI).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_wraps() {
        let a = Angle::from_degrees(170.0) + Angle::from_degrees(20.0);
        assert!((a.degrees() - -170.0).abs() < 1e-9);
        let b = Angle::from_degrees(-170.0) - Angle::from_degrees(20.0);
        assert!((b.degrees() - 170.0).abs() < 1e-9);
    }

    #[test]
    fn beamwidth_validation() {
        assert!(Beamwidth::from_degrees(0.0).is_err());
        assert!(Beamwidth::from_degrees(-10.0).is_err());
        assert!(Beamwidth::from_degrees(361.0).is_err());
        assert!(Beamwidth::from_degrees(f64::NAN).is_err());
        assert!(Beamwidth::from_degrees(360.0).is_ok());
        assert!(Beamwidth::from_degrees(15.0).is_ok());
    }

    #[test]
    fn beamwidth_error_displays() {
        let err = Beamwidth::from_degrees(0.0).unwrap_err();
        assert!(format!("{err}").contains("beamwidth"));
    }

    #[test]
    fn omni_covers_everything() {
        assert!(Beamwidth::OMNI.is_omni());
        assert!(Beamwidth::OMNI.covers_separation(PI));
        assert!((Beamwidth::OMNI.fraction_of_circle() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn narrow_beam_covers_only_near_boresight() {
        let theta = Beamwidth::from_degrees(30.0).unwrap();
        assert!(theta.covers_separation(14.0_f64.to_radians()));
        assert!(!theta.covers_separation(16.0_f64.to_radians()));
        assert!(!theta.is_omni());
    }

    #[test]
    fn displays_are_nonempty() {
        assert!(!format!("{}", Angle::ZERO).is_empty());
        assert!(!format!("{}", Beamwidth::OMNI).is_empty());
    }
}
