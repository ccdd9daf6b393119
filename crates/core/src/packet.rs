//! Spatially tagged game packets — the only game data Matrix ever sees.
//!
//! §3.1: game developers "merely forward all game packets, appropriately
//! tagged with the spatial coordinates (in the game world) of the packet's
//! origin and destination, to the local Matrix server". Matrix routes on
//! the tag alone and never inspects the payload, which is how it supports
//! any game without understanding its logic.

use bytes::Bytes;
use matrix_geometry::Point;
use serde::{Deserialize, Serialize};

/// Identifier of a game client (player).
///
/// §3.2.2 requires games to identify players with globally unique IDs
/// (callsigns) rather than per-server IDs; this newtype is that global id.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ClientId(pub u64);

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// The spatial tag a game server attaches to every packet it forwards.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpatialTag {
    /// Where in the game world the event originated.
    pub origin: Point,
    /// Optional explicit destination for non-proximal interactions
    /// (teleports, long-range spells); routed via the coordinator.
    pub dest: Option<Point>,
    /// Per-packet visibility-radius override. `None` uses the radius the
    /// game registered; `Some(r)` uses the overlap tables built for `r`
    /// (the API's "different visibility radii for exceptions", §3.1).
    pub radius_override: Option<f64>,
}

impl SpatialTag {
    /// Tag for an ordinary proximal event at `origin`.
    pub fn at(origin: Point) -> SpatialTag {
        SpatialTag {
            origin,
            dest: None,
            radius_override: None,
        }
    }

    /// Tag for a non-proximal interaction from `origin` to `dest`.
    pub fn towards(origin: Point, dest: Point) -> SpatialTag {
        SpatialTag {
            origin,
            dest: Some(dest),
            radius_override: None,
        }
    }

    /// Applies a visibility-radius override.
    pub fn with_radius(mut self, radius: f64) -> SpatialTag {
        self.radius_override = Some(radius);
        self
    }
}

/// A game packet as seen by the middleware: tag, originating client, and
/// an opaque payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GamePacket {
    /// The client whose action produced the packet, if any (server-generated
    /// events such as weather carry `None`).
    pub client: Option<ClientId>,
    /// Spatial routing tag.
    pub tag: SpatialTag,
    /// Opaque game payload. Matrix never parses it.
    pub payload: Bytes,
    /// Monotone per-origin sequence number, used for duplicate suppression
    /// in tests and loss accounting in experiments.
    pub seq: u64,
}

impl GamePacket {
    /// Builds a packet with an empty payload of the given advertised size.
    ///
    /// Experiments only need packet *sizes* for bandwidth accounting; real
    /// deployments put actual game data in `payload`.
    pub fn synthetic(client: ClientId, tag: SpatialTag, size: usize, seq: u64) -> GamePacket {
        GamePacket {
            client: Some(client),
            tag,
            payload: Bytes::from(vec![0u8; size]),
            seq,
        }
    }

    /// Total size used for bandwidth accounting: payload plus the tag/header
    /// overhead Matrix adds on the wire.
    pub fn wire_size(&self) -> usize {
        self.payload.len() + Self::HEADER_BYTES
    }

    /// Serialised header overhead: client id, tag, sequence number.
    pub const HEADER_BYTES: usize = 48;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_constructors() {
        let p = Point::new(1.0, 2.0);
        let t = SpatialTag::at(p);
        assert_eq!(t.origin, p);
        assert_eq!(t.dest, None);
        assert_eq!(t.radius_override, None);

        let t = SpatialTag::towards(p, Point::new(9.0, 9.0)).with_radius(5.0);
        assert_eq!(t.dest, Some(Point::new(9.0, 9.0)));
        assert_eq!(t.radius_override, Some(5.0));
    }

    #[test]
    fn synthetic_packet_sizes() {
        let pkt = GamePacket::synthetic(ClientId(7), SpatialTag::at(Point::ORIGIN), 100, 1);
        assert_eq!(pkt.payload.len(), 100);
        assert_eq!(pkt.wire_size(), 100 + GamePacket::HEADER_BYTES);
        assert_eq!(pkt.client, Some(ClientId(7)));
    }

    #[test]
    fn client_id_display() {
        assert_eq!(ClientId(42).to_string(), "c42");
    }
}
