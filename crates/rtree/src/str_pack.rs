//! Sort-Tile-Recursive bulk loading (Leutenegger et al., ICDE'97).

use dsi_broadcast::segmented::Children;
use dsi_geom::{Point, Rect};

use crate::tree::{Node, RTree};

/// Bulk-loads an R-tree by STR packing: sort by x, cut into ⌈√P⌉ vertical
/// strips of ⌈√P⌉ pages each, sort every strip by y, and pack runs of
/// `leaf_fanout` objects into leaves; then apply the same tiling
/// recursively to node centres with `node_fanout` until one root remains.
///
/// # Panics
///
/// Panics if `objects` is empty or a fanout is below 2.
pub fn str_pack(objects: &[(u32, Point)], leaf_fanout: u32, node_fanout: u32) -> RTree {
    assert!(!objects.is_empty(), "cannot pack an empty R-tree");
    assert!(leaf_fanout >= 2 && node_fanout >= 2, "fanouts must be >= 2");

    // Leaf level: tile the objects; the tiled order becomes the canonical
    // object order so every leaf holds a contiguous run.
    let runs = tile(objects.to_vec(), leaf_fanout, |&(_, p)| p);
    let mut object_order = Vec::with_capacity(objects.len());
    let mut leaves = Vec::new();
    for run in runs {
        let start = object_order.len() as u32;
        let mut mbr = Rect::EMPTY;
        for &(id, p) in &run {
            mbr.expand(p);
            object_order.push((id, p));
        }
        leaves.push(Node {
            mbr,
            children: Children::Objects {
                start,
                count: run.len() as u32,
            },
        });
    }

    // Upper levels: tile node centres; children are explicit index lists,
    // so no reordering of lower levels is needed.
    let mut levels = vec![leaves];
    while levels.last().expect("non-empty").len() > 1 {
        let below = levels.last().expect("non-empty");
        let refs: Vec<(u32, Point)> = below
            .iter()
            .enumerate()
            .map(|(i, n)| (i as u32, n.mbr.center()))
            .collect();
        let runs = tile(refs, node_fanout, |&(_, c)| c);
        let mut parents = Vec::with_capacity(runs.len());
        for run in runs {
            let mut mbr = Rect::EMPTY;
            let mut kids = Vec::with_capacity(run.len());
            for &(idx, _) in &run {
                mbr = mbr.union(&below[idx as usize].mbr);
                kids.push(idx);
            }
            parents.push(Node {
                mbr,
                children: Children::Nodes(kids),
            });
        }
        levels.push(parents);
    }

    RTree {
        levels,
        objects: object_order,
    }
}

/// STR tiling: sorts by x, slices into ⌈√P⌉ vertical strips, sorts each
/// strip by y and chunks into runs of `fanout`.
fn tile<T: Clone>(mut items: Vec<T>, fanout: u32, pos: impl Fn(&T) -> Point) -> Vec<Vec<T>> {
    let pages = items.len().div_ceil(fanout as usize);
    let strips = (pages as f64).sqrt().ceil() as usize;
    let strip_len = (strips * fanout as usize).max(1);
    items.sort_by(|a, b| {
        pos(a)
            .x
            .partial_cmp(&pos(b).x)
            .expect("coordinates are not NaN")
    });
    let mut runs = Vec::with_capacity(pages);
    for strip in items.chunks_mut(strip_len) {
        strip.sort_by(|a, b| {
            pos(a)
                .y
                .partial_cmp(&pos(b).y)
                .expect("coordinates are not NaN")
        });
        for run in strip.chunks(fanout as usize) {
            runs.push(run.to_vec());
        }
    }
    runs
}
