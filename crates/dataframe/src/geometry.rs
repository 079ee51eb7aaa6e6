//! Planar geometry types, predicates, and WKT round-tripping.
//!
//! Covers the Sedona feature subset GeoTorchAI's preprocessing relies on:
//! points (from lat/lon columns), axis-aligned envelopes (grid cells),
//! simple polygons, and point containment.

use crate::error::{DfError, DfResult};

/// A 2-D point (x = longitude, y = latitude in geographic use).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// X coordinate.
    pub x: f64,
    /// Y coordinate.
    pub y: f64,
}

impl Point {
    /// Construct a point.
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }
}

/// An axis-aligned bounding box `[min_x, max_x] × [min_y, max_y]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    /// Minimum x.
    pub min_x: f64,
    /// Minimum y.
    pub min_y: f64,
    /// Maximum x.
    pub max_x: f64,
    /// Maximum y.
    pub max_y: f64,
}

impl Envelope {
    /// Construct, normalising min/max ordering.
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        Envelope {
            min_x: min_x.min(max_x),
            min_y: min_y.min(max_y),
            max_x: min_x.max(max_x),
            max_y: min_y.max(max_y),
        }
    }

    /// The empty-area envelope of a single point.
    pub fn of_point(p: &Point) -> Self {
        Envelope::new(p.x, p.y, p.x, p.y)
    }

    /// Smallest envelope covering both.
    pub fn union(&self, other: &Envelope) -> Envelope {
        Envelope {
            min_x: self.min_x.min(other.min_x),
            min_y: self.min_y.min(other.min_y),
            max_x: self.max_x.max(other.max_x),
            max_y: self.max_y.max(other.max_y),
        }
    }

    /// Point containment. The envelope is closed on min edges and open on
    /// max edges (`[min, max)`), so adjacent grid cells tile the plane
    /// without double-counting boundary points.
    pub fn contains_point(&self, p: &Point) -> bool {
        p.x >= self.min_x && p.x < self.max_x && p.y >= self.min_y && p.y < self.max_y
    }

    /// Envelope width.
    pub fn width(&self) -> f64 {
        self.max_x - self.min_x
    }

    /// Envelope height.
    pub fn height(&self) -> f64 {
        self.max_y - self.min_y
    }

    /// Area.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Centre point.
    pub fn center(&self) -> Point {
        Point::new(
            (self.min_x + self.max_x) / 2.0,
            (self.min_y + self.max_y) / 2.0,
        )
    }
}

/// A simple polygon (single exterior ring, no holes), stored as an open
/// ring of vertices (the closing edge is implicit).
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    vertices: Vec<Point>,
    envelope: Envelope,
}

impl Polygon {
    /// Build from at least three vertices.
    pub fn new(vertices: Vec<Point>) -> DfResult<Self> {
        if vertices.len() < 3 {
            return Err(DfError::InvalidGeometry(format!(
                "polygon needs >= 3 vertices, got {}",
                vertices.len()
            )));
        }
        let mut env = Envelope::of_point(&vertices[0]);
        for v in &vertices[1..] {
            env = env.union(&Envelope::of_point(v));
        }
        Ok(Polygon {
            vertices,
            envelope: env,
        })
    }

    /// Exterior ring vertices (open).
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Cached bounding box.
    pub fn envelope(&self) -> Envelope {
        self.envelope
    }

    /// Even-odd ray-casting point-in-polygon test. Boundary points may
    /// fall on either side (standard for floating-point PIP).
    pub fn contains_point(&self, p: &Point) -> bool {
        if !self.envelope.contains_point(p) && !on_closed_envelope(&self.envelope, p) {
            return false;
        }
        let mut inside = false;
        let n = self.vertices.len();
        let mut j = n - 1;
        for i in 0..n {
            let (vi, vj) = (&self.vertices[i], &self.vertices[j]);
            if (vi.y > p.y) != (vj.y > p.y) {
                let x_cross = vj.x + (p.y - vj.y) / (vi.y - vj.y) * (vi.x - vj.x);
                if p.x < x_cross {
                    inside = !inside;
                }
            }
            j = i;
        }
        inside
    }
}

fn on_closed_envelope(env: &Envelope, p: &Point) -> bool {
    p.x >= env.min_x && p.x <= env.max_x && p.y >= env.min_y && p.y <= env.max_y
}

/// Any geometry storable in a [`crate::Column::Geom`] column.
#[derive(Debug, Clone, PartialEq)]
pub enum Geometry {
    /// Point.
    Point(Point),
    /// Axis-aligned envelope (grid cells).
    Envelope(Envelope),
    /// Simple polygon.
    Polygon(Polygon),
}

impl Geometry {
    /// Bounding box of the geometry.
    pub fn envelope(&self) -> Envelope {
        match self {
            Geometry::Point(p) => Envelope::of_point(p),
            Geometry::Envelope(e) => *e,
            Geometry::Polygon(poly) => poly.envelope(),
        }
    }

    /// Whether this geometry contains the point.
    pub fn contains_point(&self, p: &Point) -> bool {
        match self {
            Geometry::Point(q) => q == p,
            Geometry::Envelope(e) => e.contains_point(p),
            Geometry::Polygon(poly) => poly.contains_point(p),
        }
    }

    /// Representative point (centroid of the envelope).
    pub fn representative_point(&self) -> Point {
        self.envelope().center()
    }

    /// Approximate heap footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        match self {
            Geometry::Point(_) => 16,
            Geometry::Envelope(_) => 32,
            Geometry::Polygon(p) => 32 + p.vertices.len() * 16,
        }
    }

    /// Serialise to Well-Known Text.
    pub fn to_wkt(&self) -> String {
        match self {
            Geometry::Point(p) => format!("POINT ({} {})", p.x, p.y),
            Geometry::Envelope(e) => format!(
                "POLYGON (({} {}, {} {}, {} {}, {} {}, {} {}))",
                e.min_x, e.min_y, e.max_x, e.min_y, e.max_x, e.max_y, e.min_x, e.max_y, e.min_x, e.min_y
            ),
            Geometry::Polygon(poly) => {
                let mut coords: Vec<String> = poly
                    .vertices
                    .iter()
                    .map(|v| format!("{} {}", v.x, v.y))
                    .collect();
                // Close the ring.
                coords.push(format!("{} {}", poly.vertices[0].x, poly.vertices[0].y));
                format!("POLYGON (({}))", coords.join(", "))
            }
        }
    }

    /// Parse `POINT (x y)` or `POLYGON ((x y, ...))` WKT.
    pub fn from_wkt(wkt: &str) -> DfResult<Geometry> {
        let trimmed = wkt.trim();
        let upper = trimmed.to_ascii_uppercase();
        if let Some(rest) = upper.strip_prefix("POINT") {
            let inner = extract_parens(rest.trim(), trimmed, "POINT")?;
            let coords = parse_coord(inner)?;
            return Ok(Geometry::Point(Point::new(coords.0, coords.1)));
        }
        if upper.starts_with("POLYGON") {
            let open = trimmed
                .find("((")
                .ok_or_else(|| DfError::InvalidGeometry(format!("malformed POLYGON: {trimmed}")))?;
            let close = trimmed
                .rfind("))")
                .ok_or_else(|| DfError::InvalidGeometry(format!("malformed POLYGON: {trimmed}")))?;
            let inner = &trimmed[open + 2..close];
            let mut vertices = Vec::new();
            for pair in inner.split(',') {
                let (x, y) = parse_coord(pair)?;
                vertices.push(Point::new(x, y));
            }
            // Drop the explicit closing vertex if present.
            if vertices.len() >= 2 && vertices.first() == vertices.last() {
                vertices.pop();
            }
            return Ok(Geometry::Polygon(Polygon::new(vertices)?));
        }
        Err(DfError::InvalidGeometry(format!(
            "unsupported WKT: {trimmed}"
        )))
    }
}

fn extract_parens<'a>(rest: &'a str, full: &str, kind: &str) -> DfResult<&'a str> {
    let rest = rest.trim();
    if let Some(stripped) = rest.strip_prefix('(').and_then(|r| r.strip_suffix(')')) {
        Ok(stripped)
    } else {
        Err(DfError::InvalidGeometry(format!(
            "malformed {kind}: {full}"
        )))
    }
}

fn parse_coord(s: &str) -> DfResult<(f64, f64)> {
    let mut parts = s.split_whitespace();
    let x = parts
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| DfError::InvalidGeometry(format!("bad coordinate: {s}")))?;
    let y = parts
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| DfError::InvalidGeometry(format!("bad coordinate: {s}")))?;
    if parts.next().is_some() {
        return Err(DfError::InvalidGeometry(format!(
            "too many ordinates: {s}"
        )));
    }
    Ok((x, y))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_semantics_are_half_open() {
        let e = Envelope::new(0.0, 0.0, 1.0, 1.0);
        assert!(e.contains_point(&Point::new(0.0, 0.0)));
        assert!(e.contains_point(&Point::new(0.999, 0.5)));
        assert!(!e.contains_point(&Point::new(1.0, 0.5)));
        // Two adjacent cells: every point belongs to exactly one.
        let right = Envelope::new(1.0, 0.0, 2.0, 1.0);
        let boundary = Point::new(1.0, 0.5);
        assert_eq!(
            e.contains_point(&boundary) as u8 + right.contains_point(&boundary) as u8,
            1
        );
    }

    #[test]
    fn envelope_normalises_and_measures() {
        let e = Envelope::new(2.0, 5.0, -1.0, 1.0);
        assert_eq!(e.min_x, -1.0);
        assert_eq!(e.max_y, 5.0);
        assert_eq!(e.width(), 3.0);
        assert_eq!(e.height(), 4.0);
        assert_eq!(e.area(), 12.0);
        let c = e.center();
        assert_eq!((c.x, c.y), (0.5, 3.0));
    }

    #[test]
    fn envelope_union_covers_both() {
        let a = Envelope::new(0.0, 0.0, 2.0, 2.0);
        let c = Envelope::new(5.0, 5.0, 6.0, 6.0);
        let u = a.union(&c);
        assert_eq!((u.min_x, u.max_x), (0.0, 6.0));
    }

    #[test]
    fn polygon_requires_three_vertices() {
        assert!(Polygon::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)]).is_err());
    }

    #[test]
    fn polygon_point_in_triangle() {
        let tri = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(2.0, 4.0),
        ])
        .unwrap();
        assert!(tri.contains_point(&Point::new(2.0, 1.0)));
        assert!(!tri.contains_point(&Point::new(0.0, 3.0)));
        assert!(!tri.contains_point(&Point::new(5.0, 1.0)));
    }

    #[test]
    fn polygon_concave_containment() {
        // An L-shape: the notch must be outside.
        let l = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(3.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 3.0),
            Point::new(0.0, 3.0),
        ])
        .unwrap();
        assert!(l.contains_point(&Point::new(0.5, 2.0)));
        assert!(l.contains_point(&Point::new(2.0, 0.5)));
        assert!(!l.contains_point(&Point::new(2.0, 2.0)));
    }

    #[test]
    fn wkt_point_round_trip() {
        let g = Geometry::Point(Point::new(-73.97, 40.78));
        let back = Geometry::from_wkt(&g.to_wkt()).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn wkt_polygon_round_trip() {
        let poly = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(1.0, 2.0),
        ])
        .unwrap();
        let g = Geometry::Polygon(poly);
        let back = Geometry::from_wkt(&g.to_wkt()).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn wkt_envelope_serialises_as_polygon() {
        let g = Geometry::Envelope(Envelope::new(0.0, 0.0, 1.0, 1.0));
        let wkt = g.to_wkt();
        assert!(wkt.starts_with("POLYGON"));
        let back = Geometry::from_wkt(&wkt).unwrap();
        // Parses back as a polygon covering the same envelope.
        assert_eq!(back.envelope(), g.envelope());
    }

    #[test]
    fn wkt_rejects_garbage() {
        assert!(Geometry::from_wkt("CIRCLE (0 0 1)").is_err());
        assert!(Geometry::from_wkt("POINT (1)").is_err());
        assert!(Geometry::from_wkt("POINT (a b)").is_err());
        assert!(Geometry::from_wkt("POLYGON ((0 0, 1 1))").is_err());
        assert!(Geometry::from_wkt("POINT (1 2 3)").is_err());
    }

    #[test]
    fn geometry_dispatch() {
        let g = Geometry::Envelope(Envelope::new(0.0, 0.0, 2.0, 2.0));
        assert!(g.contains_point(&Point::new(1.0, 1.0)));
        assert_eq!(g.representative_point(), Point::new(1.0, 1.0));
        assert!(g.approx_bytes() > 0);
    }
}
