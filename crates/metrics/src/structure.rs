//! Analysis of emerged dissemination structures.
//!
//! Given the parent links reported by every node, this module computes the
//! structural properties the paper studies: per-node depth (Figure 6, the
//! *maximum* distance from the source) and per-node degree (Figure 7, the
//! number of children; Figure 8's sample trees are reported as height and
//! leaf share).
//!
//! Node identifiers are plain `u32` values so this crate stays free of
//! simulator dependencies.

use std::collections::{HashMap, HashSet, VecDeque};

/// A snapshot of the emerged structure: for every node, its parents.
#[derive(Debug, Clone, Default)]
pub struct StructureSnapshot {
    /// `node -> parents` (one parent per node for trees, possibly several
    /// for DAGs).
    pub parents: HashMap<u32, Vec<u32>>,
    /// The stream source (root).
    pub source: u32,
}

impl StructureSnapshot {
    /// Creates a snapshot rooted at `source`.
    pub fn new(source: u32) -> Self {
        StructureSnapshot {
            parents: HashMap::new(),
            source,
        }
    }

    /// Records the parent set of `node`.
    pub fn set_parents(&mut self, node: u32, parents: Vec<u32>) {
        self.parents.insert(node, parents);
    }

    /// All nodes known to the snapshot (sources and nodes with parents).
    pub fn nodes(&self) -> Vec<u32> {
        let mut all: HashSet<u32> = self.parents.keys().copied().collect();
        all.insert(self.source);
        for ps in self.parents.values() {
            all.extend(ps.iter().copied());
        }
        let mut v: Vec<u32> = all.into_iter().collect();
        v.sort_unstable();
        v
    }

    /// `node -> children` derived from the parent links.
    pub fn children_map(&self) -> HashMap<u32, Vec<u32>> {
        let mut map: HashMap<u32, Vec<u32>> = HashMap::new();
        for (&node, parents) in &self.parents {
            for &p in parents {
                map.entry(p).or_default().push(node);
            }
        }
        for v in map.values_mut() {
            v.sort_unstable();
        }
        map
    }

    /// Out-degree (number of children) of every node, including zero-degree
    /// leaves. This is the distribution of Figure 7.
    pub fn degrees(&self) -> HashMap<u32, usize> {
        let children = self.children_map();
        self.nodes()
            .into_iter()
            .map(|n| (n, children.get(&n).map(|c| c.len()).unwrap_or(0)))
            .collect()
    }

    /// Depth of every node: the *longest* path from the source following
    /// child links, matching the paper's definition for DAGs ("depth
    /// measures the maximum distance, i.e. the longest path from the root to
    /// the node"). Nodes unreachable from the source are absent from the
    /// result.
    pub fn depths(&self) -> HashMap<u32, usize> {
        let children = self.children_map();
        let mut depth: HashMap<u32, usize> = HashMap::new();
        depth.insert(self.source, 0);
        // Longest-path computation by relaxation over a BFS-like frontier.
        // The structure is expected to be acyclic; a visit bound protects
        // against pathological snapshots.
        let mut queue: VecDeque<u32> = VecDeque::new();
        queue.push_back(self.source);
        let bound = self
            .nodes()
            .len()
            .saturating_mul(self.nodes().len())
            .max(16);
        let mut visits = 0usize;
        while let Some(cur) = queue.pop_front() {
            visits += 1;
            if visits > bound {
                break;
            }
            let d = depth[&cur];
            if let Some(kids) = children.get(&cur) {
                for &k in kids {
                    let nd = d + 1;
                    let better = depth.get(&k).map(|&old| nd > old).unwrap_or(true);
                    if better && nd <= self.nodes().len() {
                        depth.insert(k, nd);
                        queue.push_back(k);
                    }
                }
            }
        }
        depth
    }

    /// True if every node in the snapshot is reachable from the source.
    pub fn is_complete(&self) -> bool {
        let depths = self.depths();
        self.nodes().iter().all(|n| depths.contains_key(n))
    }

    /// True if following parent links never revisits a node (acyclicity).
    pub fn is_acyclic(&self) -> bool {
        // Kahn-style check over the child graph.
        let children = self.children_map();
        let nodes = self.nodes();
        let mut indegree: HashMap<u32, usize> = nodes.iter().map(|&n| (n, 0)).collect();
        for kids in children.values() {
            for &k in kids {
                *indegree.entry(k).or_insert(0) += 1;
            }
        }
        let mut queue: VecDeque<u32> = indegree
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&n, _)| n)
            .collect();
        let mut seen = 0;
        while let Some(cur) = queue.pop_front() {
            seen += 1;
            if let Some(kids) = children.get(&cur) {
                for &k in kids {
                    let d = indegree.get_mut(&k).expect("child node is known");
                    *d -= 1;
                    if *d == 0 {
                        queue.push_back(k);
                    }
                }
            }
        }
        seen == nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 -> 1 -> 3, 0 -> 2, and 3 also has parent 2 (a small DAG).
    fn sample_dag() -> StructureSnapshot {
        let mut s = StructureSnapshot::new(0);
        s.set_parents(1, vec![0]);
        s.set_parents(2, vec![0]);
        s.set_parents(3, vec![1, 2]);
        s
    }

    #[test]
    fn degrees_and_children() {
        let s = sample_dag();
        let deg = s.degrees();
        assert_eq!(deg[&0], 2);
        assert_eq!(deg[&1], 1);
        assert_eq!(deg[&2], 1);
        assert_eq!(deg[&3], 0);
        let children = s.children_map();
        assert_eq!(children[&0], vec![1, 2]);
    }

    #[test]
    fn depths_use_longest_path() {
        let s = sample_dag();
        let d = s.depths();
        assert_eq!(d[&0], 0);
        assert_eq!(d[&1], 1);
        assert_eq!(d[&2], 1);
        assert_eq!(d[&3], 2);
        // Deepen one branch: 0 -> 1 -> 4 -> 3 makes 3's longest path 3.
        let mut s2 = sample_dag();
        s2.set_parents(4, vec![1]);
        s2.set_parents(3, vec![4, 2]);
        assert_eq!(s2.depths()[&3], 3);
    }

    #[test]
    fn completeness_and_acyclicity() {
        let s = sample_dag();
        assert!(s.is_complete());
        assert!(s.is_acyclic());
        // Disconnected node: 9's parent 8 is not reachable from the source.
        let mut s2 = sample_dag();
        s2.set_parents(9, vec![8]);
        assert!(!s2.is_complete());
        assert!(s2.is_acyclic());
        // Cycle 5 <-> 6.
        let mut s3 = StructureSnapshot::new(0);
        s3.set_parents(5, vec![6]);
        s3.set_parents(6, vec![5]);
        assert!(!s3.is_acyclic());
    }

    #[test]
    fn nodes_includes_parents_not_listed_as_keys() {
        let mut s = StructureSnapshot::new(0);
        s.set_parents(2, vec![7]);
        assert_eq!(s.nodes(), vec![0, 2, 7]);
    }
}
