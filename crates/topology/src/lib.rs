//! # prdrb-topology — network topologies and path machinery
//!
//! The two topologies of the thesis' evaluation chapter:
//!
//! * an 8×8 **2-D mesh** (Table 4.2, hot-spot experiments §4.5/§4.6.2), and
//! * a **k-ary n-tree** fat-tree, instantiated as the 4-ary 3-tree of
//!   Table 4.3 (§2.1.5, §4.6.3, §4.8),
//!
//! plus a **dragonfly** with the palm-tree global arrangement, the
//! extension topology where adaptive routing is contested (global links
//! are scarce and shared).
//!
//! On top of the raw graphs this crate provides:
//!
//! * deterministic minimal routing (DOR on the mesh; NCA up/down on the
//!   tree, §2.1.5; gateway-directed on the dragonfly),
//! * [`PathDescriptor`]s — the fixed-size routing headers packets carry
//!   (§3.3.1: source, two intermediate nodes, destination), and
//! * [`altpath`] — generation of the *multi-step paths* (MSPs) DRB expands
//!   a metapath with (§3.2.3, Figs 3.6/3.7), derived from graph
//!   structure (BFS rings) rather than per-shape tables.

#![forbid(unsafe_code)]

pub mod altpath;
pub mod dragonfly;
pub mod fattree;
pub mod faults;
pub mod ids;
pub mod mesh;
pub mod route;
pub mod table;

pub use altpath::AltPathProvider;
pub use dragonfly::Dragonfly;
pub use fattree::KAryNTree;
pub use faults::{route_survives, FaultEvent, FaultPlan, FaultState, TimedFault};
pub use ids::{Endpoint, NodeId, Port, RouterId};
pub use mesh::Mesh2D;
pub use route::{next_port, route_len, walk_route, PathDescriptor, RouteState};
pub use table::RouteTable;

/// A network topology: routers, terminals, links and minimal routing.
///
/// Terminals (processing nodes, §3.1 "nodes") attach to routers; routers
/// ("network nodes") forward packets. All methods are cheap and
/// allocation-free so routing can run per-hop in the event loop.
pub trait Topology {
    /// Number of terminals (processing nodes).
    fn num_terminals(&self) -> usize;
    /// Number of routers.
    fn num_routers(&self) -> usize;
    /// Number of ports on router `r` (including terminal-facing ports).
    fn num_ports(&self, r: RouterId) -> usize;
    /// The router terminal `n` attaches to.
    fn router_of(&self, n: NodeId) -> RouterId;
    /// The port on `router_of(n)` that faces terminal `n`.
    fn terminal_port(&self, n: NodeId) -> Port;
    /// What is on the far side of `(r, p)`, if anything.
    fn neighbor(&self, r: RouterId, p: Port) -> Option<Endpoint>;
    /// Deterministic minimal next-hop port from `r` toward terminal `dst`.
    fn minimal_port(&self, r: RouterId, dst: NodeId) -> Port;
    /// All ports at `r` that lie on some minimal route to `dst`.
    fn minimal_candidates(&self, r: RouterId, dst: NodeId, out: &mut Vec<Port>);
    /// Router-hop distance between the attachment routers of `a` and `b`.
    fn distance(&self, a: NodeId, b: NodeId) -> u32;
    /// Latency class of the physical wire behind `(r, p)`.
    ///
    /// Real interconnects are built from heterogeneous cables: short
    /// backplane traces inside a board or pod, long inter-cabinet
    /// (optical) runs, and the server/NIC attachment itself. Classes
    /// index into the network crate's per-class extra-delay table
    /// (`NetworkConfig::wire_class_extra_ns`):
    ///
    /// * `LINK_CLASS_LOCAL` (0) — intra-board / intra-pod electrical,
    /// * `LINK_CLASS_GLOBAL` (1) — long root-level / inter-group wires,
    /// * `LINK_CLASS_SERVER` (2) — the terminal ↔ router attachment.
    ///
    /// The class must be a property of the *wire*, not the endpoint:
    /// `link_class(r, p)` and `link_class` of the reverse endpoint must
    /// agree, so a packet and the credit it returns over the same wire
    /// pay the same delay.
    fn link_class(&self, r: RouterId, p: Port) -> u8;
    /// Human-readable name for reports.
    fn label(&self) -> String;
}

/// Short intra-board / intra-pod wire.
pub const LINK_CLASS_LOCAL: u8 = 0;
/// Long root-level (fat-tree spine) or inter-group (dragonfly) wire.
pub const LINK_CLASS_GLOBAL: u8 = 1;
/// Terminal (server NIC) attachment wire.
pub const LINK_CLASS_SERVER: u8 = 2;
/// Number of distinct latency classes.
pub const NUM_LINK_CLASSES: usize = 3;

/// Concrete topology dispatch (keeps the engine monomorphic and simple).
#[derive(Debug, Clone)]
pub enum AnyTopology {
    /// 2-D mesh.
    Mesh(Mesh2D),
    /// k-ary n-tree fat-tree.
    Tree(KAryNTree),
    /// Dragonfly (palm-tree global arrangement).
    Dragonfly(Dragonfly),
}

macro_rules! dispatch {
    ($self:ident, $t:ident => $body:expr) => {
        match $self {
            AnyTopology::Mesh($t) => $body,
            AnyTopology::Tree($t) => $body,
            AnyTopology::Dragonfly($t) => $body,
        }
    };
}

impl Topology for AnyTopology {
    #[inline]
    fn num_terminals(&self) -> usize {
        dispatch!(self, t => t.num_terminals())
    }
    #[inline]
    fn num_routers(&self) -> usize {
        dispatch!(self, t => t.num_routers())
    }
    #[inline]
    fn num_ports(&self, r: RouterId) -> usize {
        dispatch!(self, t => t.num_ports(r))
    }
    #[inline]
    fn router_of(&self, n: NodeId) -> RouterId {
        dispatch!(self, t => t.router_of(n))
    }
    #[inline]
    fn terminal_port(&self, n: NodeId) -> Port {
        dispatch!(self, t => t.terminal_port(n))
    }
    #[inline]
    fn neighbor(&self, r: RouterId, p: Port) -> Option<Endpoint> {
        dispatch!(self, t => t.neighbor(r, p))
    }
    #[inline]
    fn minimal_port(&self, r: RouterId, dst: NodeId) -> Port {
        dispatch!(self, t => t.minimal_port(r, dst))
    }
    #[inline]
    fn minimal_candidates(&self, r: RouterId, dst: NodeId, out: &mut Vec<Port>) {
        dispatch!(self, t => t.minimal_candidates(r, dst, out))
    }
    #[inline]
    fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        dispatch!(self, t => t.distance(a, b))
    }
    #[inline]
    fn link_class(&self, r: RouterId, p: Port) -> u8 {
        dispatch!(self, t => t.link_class(r, p))
    }
    #[inline]
    fn label(&self) -> String {
        dispatch!(self, t => t.label())
    }
}

impl AnyTopology {
    /// The 8×8 mesh of Table 4.2.
    pub fn mesh8x8() -> Self {
        AnyTopology::Mesh(Mesh2D::new(8, 8))
    }

    /// The 4-ary 3-tree (64 terminals) of Table 4.3.
    pub fn fat_tree_64() -> Self {
        AnyTopology::Tree(KAryNTree::new(4, 3))
    }

    /// The canonical 72-terminal dragonfly (9 groups × 4 routers × 2
    /// globals, fully-wired palm tree: G = 8 = a-1).
    pub fn dragonfly72() -> Self {
        AnyTopology::Dragonfly(Dragonfly::new(9, 4, 2))
    }
}
