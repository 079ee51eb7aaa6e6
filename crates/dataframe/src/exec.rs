//! Partition-parallel execution.
//!
//! The engine's analogue of Spark's executor pool: independent partitions
//! are processed concurrently on a `std::thread` scope, one worker per
//! core.

/// Worker-thread count used by partition-parallel operations: the
/// machine's core count.
pub fn parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over items in parallel, preserving order of results.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = parallelism().min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let mut out: Vec<Option<U>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    let chunk = items.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (inputs, outputs) in items.chunks(chunk).zip(out.chunks_mut(chunk)) {
            let f = &f;
            scope.spawn(move || {
                for (item, slot) in inputs.iter().zip(outputs.iter_mut()) {
                    *slot = Some(f(item));
                }
            });
        }
    });
    out.into_iter()
        .map(|v| v.expect("all slots filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let doubled = par_map(&items, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_item_runs_inline() {
        assert_eq!(par_map(&[1], |x| x + 1), vec![2]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = par_map(&[] as &[i32], |x| *x);
        assert!(out.is_empty());
    }
}
