//! Ideal antenna beams modeled as circular sectors.

use std::fmt;

use crate::{Angle, Beamwidth, Point};

/// An ideal antenna beam: a circular sector with apex at the transmitter,
/// boresight direction, beamwidth, and range.
///
/// The paper's antenna model assumes complete attenuation outside the
/// beamwidth and equal gain inside it, so beam coverage reduces to sector
/// containment.
///
/// # Example
///
/// ```
/// use dirca_geometry::{Angle, Beamwidth, Point, Sector};
///
/// let tx = Point::ORIGIN;
/// let rx = Point::new(0.8, 0.1);
/// let beam = Sector::aimed_at(tx, rx, Beamwidth::from_degrees(60.0)?, 1.0);
/// assert!(beam.contains(rx));
/// # Ok::<(), dirca_geometry::BeamwidthError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sector {
    apex: Point,
    boresight: Angle,
    beamwidth: Beamwidth,
    range: f64,
}

impl Sector {
    /// Creates a sector from apex, boresight direction, beamwidth, and range.
    ///
    /// # Panics
    ///
    /// Panics if `range` is negative or not finite.
    pub fn new(apex: Point, boresight: Angle, beamwidth: Beamwidth, range: f64) -> Self {
        assert!(
            range.is_finite() && range >= 0.0,
            "sector range must be finite and non-negative, got {range}"
        );
        Sector {
            apex,
            boresight,
            beamwidth,
            range,
        }
    }

    /// Creates a sector whose boresight points from `apex` toward `target`.
    ///
    /// # Panics
    ///
    /// Panics if `range` is negative or not finite.
    pub fn aimed_at(apex: Point, target: Point, beamwidth: Beamwidth, range: f64) -> Self {
        Self::new(apex, apex.heading_to(target), beamwidth, range)
    }

    /// The apex (transmitter position).
    pub fn apex(&self) -> Point {
        self.apex
    }

    /// The boresight heading.
    pub fn boresight(&self) -> Angle {
        self.boresight
    }

    /// The beamwidth θ.
    pub fn beamwidth(&self) -> Beamwidth {
        self.beamwidth
    }

    /// The sector radius (transmission range).
    pub fn range(&self) -> f64 {
        self.range
    }

    /// Area of the sector, `θ/2 · range²`.
    pub fn area(&self) -> f64 {
        0.5 * self.beamwidth.radians() * self.range * self.range
    }

    /// Whether point `p` is covered by the beam (inside both the range disk
    /// and the angular aperture). The apex itself is covered.
    pub fn contains(&self, p: Point) -> bool {
        let d2 = self.apex.distance_squared(p);
        if d2 > self.range * self.range + crate::EPSILON {
            return false;
        }
        if d2 <= crate::EPSILON {
            return true;
        }
        self.beamwidth
            .covers_bearing(self.boresight, self.apex.heading_to(p))
    }
}

impl fmt::Display for Sector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sector(apex={}, boresight={}, {}, r={:.4})",
            self.apex, self.boresight, self.beamwidth, self.range
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beam(deg: f64) -> Beamwidth {
        Beamwidth::from_degrees(deg).unwrap()
    }

    #[test]
    fn contains_respects_range() {
        let s = Sector::new(Point::ORIGIN, Angle::ZERO, beam(90.0), 1.0);
        assert!(s.contains(Point::new(0.99, 0.0)));
        assert!(!s.contains(Point::new(1.01, 0.0)));
    }

    #[test]
    fn contains_respects_aperture() {
        let s = Sector::new(Point::ORIGIN, Angle::ZERO, beam(90.0), 1.0);
        // 44° off boresight: inside; 46°: outside.
        assert!(s.contains(Point::ORIGIN.offset(Angle::from_degrees(44.0), 0.5)));
        assert!(!s.contains(Point::ORIGIN.offset(Angle::from_degrees(46.0), 0.5)));
    }

    #[test]
    fn apex_is_contained() {
        let s = Sector::new(Point::new(2.0, 3.0), Angle::ZERO, beam(15.0), 1.0);
        assert!(s.contains(Point::new(2.0, 3.0)));
    }

    #[test]
    fn aimed_at_covers_target_within_range() {
        let tx = Point::new(1.0, -1.0);
        let rx = Point::new(1.5, -0.3);
        let s = Sector::aimed_at(tx, rx, beam(15.0), 1.0);
        assert!(s.contains(rx));
    }

    #[test]
    fn omni_sector_is_a_disk() {
        let s = Sector::new(Point::ORIGIN, Angle::ZERO, Beamwidth::OMNI, 1.0);
        for deg in (0..360).step_by(17) {
            let p = Point::ORIGIN.offset(Angle::from_degrees(deg as f64), 0.9);
            assert!(s.contains(p), "omni beam missed {deg}°");
        }
        assert!((s.area() - std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn area_matches_fraction_of_disk() {
        let s = Sector::new(Point::ORIGIN, Angle::ZERO, beam(90.0), 2.0);
        let disk = std::f64::consts::PI * 4.0;
        assert!((s.area() - disk / 4.0).abs() < 1e-12);
    }

    #[test]
    fn beam_wrap_around_negative_x_axis() {
        // Boresight at 180°: points slightly above/below the negative x-axis
        // must be covered even though their headings straddle the ±π seam.
        let s = Sector::new(Point::ORIGIN, Angle::from_degrees(180.0), beam(30.0), 1.0);
        assert!(s.contains(Point::ORIGIN.offset(Angle::from_degrees(170.0), 0.5)));
        assert!(s.contains(Point::ORIGIN.offset(Angle::from_degrees(-170.0), 0.5)));
        assert!(!s.contains(Point::ORIGIN.offset(Angle::from_degrees(160.0), 0.5)));
    }

    #[test]
    #[should_panic(expected = "range must be finite")]
    fn rejects_bad_range() {
        let _ = Sector::new(Point::ORIGIN, Angle::ZERO, beam(30.0), f64::NAN);
    }

    #[test]
    fn display_is_nonempty() {
        let s = Sector::new(Point::ORIGIN, Angle::ZERO, beam(30.0), 1.0);
        assert!(!format!("{s}").is_empty());
    }
}
