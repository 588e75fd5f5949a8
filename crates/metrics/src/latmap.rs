//! Latency surface maps (Fig 4.7).
//!
//! "A three-dimensional graph where each point (x, y) represents a
//! router in the network and z represents the average latency of
//! internal buffers for that router." For the mesh, (x, y) are the mesh
//! coordinates; for the fat-tree we plot (level, position).

use prdrb_topology::{AnyTopology, RouterId, Topology};

/// A per-router average contention-latency surface.
#[derive(Debug, Clone)]
pub struct LatencyMap {
    /// Average contention latency (µs) per router id.
    pub values_us: Vec<f64>,
    /// Grid shape `(cols, rows)` for rendering.
    pub shape: (usize, usize),
    /// Row-major mapping router id → grid cell.
    cell_of: Vec<usize>,
}

impl LatencyMap {
    /// Build from per-router values over a topology.
    pub fn new(topo: &AnyTopology, values_us: Vec<f64>) -> Self {
        assert_eq!(values_us.len(), topo.num_routers());
        let (shape, cell_of) = match topo {
            AnyTopology::Mesh(m) => {
                let (w, h) = (m.width() as usize, m.height() as usize);
                ((w, h), (0..w * h).collect())
            }
            AnyTopology::Tree(t) => {
                let spl = t.num_routers() / t.depth() as usize;
                (
                    (spl, t.depth() as usize),
                    (0..t.depth() as usize * spl).collect(),
                )
            }
            // Group-structured topologies plot (position in group,
            // group): router ids are group-major, so the identity
            // mapping is already row-major over that grid.
            AnyTopology::Dragonfly(d) => {
                let (r, a) = (d.routers_per_group() as usize, d.groups() as usize);
                ((r, a), (0..r * a).collect())
            }
            AnyTopology::Megafly(m) => {
                let per = m.routers_per_group() as usize;
                let a = m.groups() as usize;
                ((per, a), (0..per * a).collect())
            }
        };
        Self {
            values_us,
            shape,
            cell_of,
        }
    }

    /// Highest router latency (the "peak" the figures compare).
    pub fn peak_us(&self) -> f64 {
        self.values_us.iter().copied().fold(0.0, f64::max)
    }

    /// Mean over routers with non-zero contention.
    pub fn mean_contended_us(&self) -> f64 {
        let hot: Vec<f64> = self
            .values_us
            .iter()
            .copied()
            .filter(|&v| v > 0.0)
            .collect();
        if hot.is_empty() {
            0.0
        } else {
            hot.iter().sum::<f64>() / hot.len() as f64
        }
    }

    /// Number of routers experiencing any contention.
    pub fn contended_routers(&self) -> usize {
        self.values_us.iter().filter(|&&v| v > 0.0).count()
    }

    /// Value at router `r`.
    pub fn get(&self, r: RouterId) -> f64 {
        self.values_us[r.idx()]
    }

    /// Render as ASCII (log-scaled shades), the textual analogue of the
    /// latency-surface figures.
    pub fn render(&self) -> String {
        let (cols, rows) = self.shape;
        let max = self.peak_us().max(1e-9);
        let shades = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
        let mut out = String::new();
        for row in (0..rows).rev() {
            for col in 0..cols {
                let idx = self
                    .cell_of
                    .iter()
                    .position(|&c| c == row * cols + col)
                    .unwrap_or(row * cols + col);
                let v = self.values_us.get(idx).copied().unwrap_or(0.0);
                let s = if v <= 0.0 {
                    0
                } else {
                    let f = (1.0 + v).ln() / (1.0 + max).ln();
                    ((f * (shades.len() - 1) as f64).round() as usize).min(shades.len() - 1)
                };
                out.push(shades[s]);
                out.push(shades[s]);
            }
            out.push('\n');
        }
        out
    }

    /// Row-major router-id → grid-cell mapping (serialization).
    pub fn cells(&self) -> &[usize] {
        &self.cell_of
    }

    /// Rebuild a map from its stored state (cache replay).
    pub fn from_parts(values_us: Vec<f64>, shape: (usize, usize), cell_of: Vec<usize>) -> Self {
        assert_eq!(values_us.len(), cell_of.len());
        Self {
            values_us,
            shape,
            cell_of,
        }
    }

    /// CSV rows: `router,col,row,latency_us`.
    pub fn to_csv(&self) -> String {
        let (cols, _) = self.shape;
        let mut out = String::from("router,col,row,latency_us\n");
        for (i, v) in self.values_us.iter().enumerate() {
            let cell = self.cell_of[i];
            out.push_str(&format!("{},{},{},{:.4}\n", i, cell % cols, cell / cols, v));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh_map(hot: &[(usize, f64)]) -> LatencyMap {
        let topo = AnyTopology::mesh8x8();
        let mut v = vec![0.0; 64];
        for &(i, x) in hot {
            v[i] = x;
        }
        LatencyMap::new(&topo, v)
    }

    #[test]
    fn peak_and_mean() {
        let m = mesh_map(&[(10, 4.0), (11, 2.0)]);
        assert_eq!(m.peak_us(), 4.0);
        assert_eq!(m.mean_contended_us(), 3.0);
        assert_eq!(m.contended_routers(), 2);
        assert_eq!(m.get(RouterId(10)), 4.0);
    }

    #[test]
    fn render_mesh_is_8_rows() {
        let m = mesh_map(&[(0, 5.0)]);
        let s = m.render();
        assert_eq!(s.lines().count(), 8);
        assert!(s.lines().all(|l| l.chars().count() == 16));
        // Hot router at (0,0) renders dark in the last (bottom) row.
        assert_ne!(s.lines().last().unwrap().chars().next(), Some(' '));
    }

    #[test]
    fn render_tree_shape() {
        let topo = AnyTopology::fat_tree_64();
        let m = LatencyMap::new(&topo, vec![1.0; 48]);
        let (cols, rows) = m.shape;
        assert_eq!((cols, rows), (16, 3));
        assert_eq!(m.render().lines().count(), 3);
    }

    #[test]
    fn render_dragonfly_family_shapes() {
        let df = AnyTopology::dragonfly72(); // 9 groups × 4 routers
        let m = LatencyMap::new(&df, vec![1.0; 36]);
        assert_eq!(m.shape, (4, 9));
        assert_eq!(m.render().lines().count(), 9);
        let mf = AnyTopology::megafly20(); // 5 groups × (2 leaves + 2 spines)
        let m = LatencyMap::new(&mf, vec![1.0; 20]);
        assert_eq!(m.shape, (4, 5));
        assert_eq!(m.render().lines().count(), 5);
    }

    #[test]
    fn csv_has_all_routers() {
        let m = mesh_map(&[(3, 1.5)]);
        let csv = m.to_csv();
        assert_eq!(csv.lines().count(), 65);
        assert!(csv.contains("3,3,0,1.5000"));
    }

    #[test]
    #[should_panic]
    fn wrong_length_rejected() {
        let topo = AnyTopology::mesh8x8();
        let _ = LatencyMap::new(&topo, vec![0.0; 5]);
    }
}
