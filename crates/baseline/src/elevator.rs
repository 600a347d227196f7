//! C-SCAN ordering for write-back batches.
//!
//! The buffer cache flushes dirty blocks in batches; servicing them in
//! cylinder order (ascending from the head position, wrapping once)
//! converts a random scatter of writes into two sweeps — the classic
//! elevator gain the memory-resident design gets to delete.

/// Orders block requests C-SCAN style: ascending cylinders at or beyond
/// the head, then ascending cylinders below it.
pub fn cscan_order<T: Copy>(head_cylinder: u32, mut requests: Vec<(u32, T)>) -> Vec<(u32, T)> {
    requests.sort_by_key(|&(cyl, _)| cyl);
    let split = requests.partition_point(|&(cyl, _)| cyl < head_cylinder);
    // lint: allow(H2): the 1993 disk-stack comparator is modelled for
    // contrast; only name-based resolution of `create` links replay here,
    // and the machine holds no DiskFs.
    let mut ordered = Vec::with_capacity(requests.len());
    ordered.extend_from_slice(&requests[split..]);
    ordered.extend_from_slice(&requests[..split]);
    ordered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_ascending_from_head_then_wraps() {
        let reqs = vec![(10, 'a'), (90, 'b'), (40, 'c'), (70, 'd')];
        let ordered = cscan_order(50, reqs);
        let cyls: Vec<u32> = ordered.iter().map(|&(c, _)| c).collect();
        assert_eq!(cyls, vec![70, 90, 10, 40]);
    }

    #[test]
    fn head_at_zero_is_a_plain_sort() {
        let reqs = vec![(3, ()), (1, ()), (2, ())];
        let cyls: Vec<u32> = cscan_order(0, reqs).iter().map(|&(c, _)| c).collect();
        assert_eq!(cyls, vec![1, 2, 3]);
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(cscan_order::<u8>(5, vec![]).is_empty());
    }

    #[test]
    fn cscan_total_travel_beats_fifo_on_scatter() {
        // Travel distance of a scattered batch vs its C-SCAN order.
        let reqs: Vec<(u32, ())> = [80u32, 5, 60, 20, 95, 40]
            .iter()
            .map(|&c| (c, ()))
            .collect();
        let travel = |order: &[(u32, ())]| -> u64 {
            let mut head = 50u32;
            let mut total = 0u64;
            for &(c, _) in order {
                total += head.abs_diff(c) as u64;
                head = c;
            }
            total
        };
        let fifo = travel(&reqs);
        let scan = travel(&cscan_order(50, reqs.clone()));
        assert!(scan < fifo, "C-SCAN {scan} vs FIFO {fifo}");
    }
}
