//! The shuffle: routes every map output record to its reducer and
//! materialises each reducer's input, sorted and grouped by key.
//!
//! It runs on the host threads: every map output is split by reducer,
//! then each reducer's chunks are merged in map-task order and sorted
//! stably by key. A bucket's record sequence depends on the map outputs
//! alone, never on which thread moved what.

use crate::job::{JobError, Mapper, Partitioner};
use crate::pool::Slots;
use dod_obs::sync::lock_recover;
use dod_obs::{names, Obs, Value};
use std::sync::Mutex;

/// A run of intermediate records: one map task's emissions, or the part
/// of them bound for one reducer.
pub(crate) type Records<K, V> = Vec<(K, V)>;

/// One reducer's materialised shuffle input: its records stably sorted
/// by key, then parted into the key of each group and the values alone,
/// so a reduce task hands out `&values[start..end]` per group.
pub(crate) struct ReducerInput<K, V> {
    /// `(key, index of the group's first value)`, ascending by key.
    pub(crate) groups: Vec<(K, usize)>,
    pub(crate) values: Vec<V>,
    /// Bytes the shuffle charged for these records.
    pub(crate) bytes: u64,
}

impl<K: Ord, V> ReducerInput<K, V> {
    /// Concatenates one reducer's chunks in map-task order and sorts
    /// them stably by key: the record sequence a serial walk over the
    /// map outputs would have produced.
    fn merge((chunks, bytes): (Vec<Records<K, V>>, u64)) -> Self {
        let mut records = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
        for mut chunk in chunks {
            records.append(&mut chunk);
        }
        records.sort_by(|a, b| a.0.cmp(&b.0));
        let mut groups: Vec<(K, usize)> = Vec::new();
        let mut values = Vec::with_capacity(records.len());
        for (key, value) in records {
            if groups.last().is_none_or(|(last, _)| *last != key) {
                groups.push((key, values.len()));
            }
            values.push(value);
        }
        ReducerInput {
            groups,
            values,
            bytes,
        }
    }

    /// The value slice of group `g`.
    pub(crate) fn group(&self, g: usize) -> &[V] {
        let end = self
            .groups
            .get(g + 1)
            .map_or(self.values.len(), |next| next.1);
        &self.values[self.groups[g].1..end]
    }
}

/// Shuffles the outputs of the map tasks that ran (a diverted task has
/// none), in map-task order, into one [`ReducerInput`] per reducer,
/// under the shuffle's `mapreduce.stage` span, and reports the volume.
///
/// # Errors
/// [`JobError::NoReducers`] when records were emitted but
/// `num_reducers == 0`.
pub(crate) fn shuffle<K, V, M>(
    obs: &Obs,
    host_threads: usize,
    map_results: Slots<Records<K, V>>,
    mapper: &M,
    partitioner: &Partitioner<K>,
    num_reducers: usize,
) -> Result<Vec<ReducerInput<K, V>>, JobError>
where
    M: Mapper<K = K, V = V>,
    K: Ord + Send + Sync,
    V: Send + Sync,
{
    let stage = obs
        .scope(names::MAPREDUCE_STAGE)
        .with_label("stage", "shuffle");
    let map_outputs: Vec<Records<K, V>> = map_results
        .into_iter()
        .flatten()
        .map(|(_, records)| records)
        .collect();
    if num_reducers == 0 && map_outputs.iter().any(|records| !records.is_empty()) {
        return Err(JobError::NoReducers);
    }
    let splits = on_host_threads(host_threads, map_outputs, |records| {
        let mut chunks: Vec<Records<K, V>> = (0..num_reducers).map(|_| Vec::new()).collect();
        let mut bytes = vec![0u64; num_reducers];
        for (k, v) in records {
            let r = partitioner(&k, num_reducers).min(num_reducers - 1);
            bytes[r] += mapper.record_bytes(&k, &v) as u64;
            chunks[r].push((k, v));
        }
        (chunks, bytes)
    });
    // Each reducer's chunks, in map-task order, and their bytes.
    let mut reducers: Vec<(Vec<Records<K, V>>, u64)> =
        (0..num_reducers).map(|_| (Vec::new(), 0)).collect();
    for (chunks, bytes) in splits {
        for (r, chunk) in chunks.into_iter().enumerate() {
            reducers[r].0.push(chunk);
            reducers[r].1 += bytes[r];
        }
    }
    let buckets = on_host_threads(host_threads, reducers, ReducerInput::merge);
    drop(stage);
    let records = buckets.iter().map(|b| b.values.len() as u64).sum();
    let bytes = buckets.iter().map(|b| b.bytes).sum();
    obs.counter(names::MAPREDUCE_SHUFFLE_RECORDS, records, &[]);
    obs.counter(names::MAPREDUCE_SHUFFLE_BYTES, bytes, &[]);
    if obs.enabled() {
        for (r, bucket) in buckets.iter().enumerate() {
            let volume = [
                (names::MAPREDUCE_SHUFFLE_REDUCER_BYTES, bucket.bytes as f64),
                (
                    names::MAPREDUCE_SHUFFLE_REDUCER_RECORDS,
                    bucket.values.len() as f64,
                ),
            ];
            for (name, value) in volume {
                obs.observe(name, value, &[("reducer", Value::from(r))]);
            }
        }
    }
    Ok(buckets)
}

/// Runs `f(item)` for every item on up to `threads` scoped host
/// threads (inline when one suffices) and returns the results in item
/// order, whichever thread ran them. A panic in `f` resumes on the
/// caller.
fn on_host_threads<I, T, F>(threads: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let next = lock_recover(&queue).next();
                        let Some((i, item)) = next else { break };
                        done.push((i, f(item)));
                    }
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| match worker.join() {
                Ok(done) => done,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, value)| value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointStore;
    use crate::job::tests::{ckpt_root, job_fp};
    use crate::{run, BlockStore, ClusterConfig, JobOptions, JobOutcome, Reducer};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Keys item % 12 (so keys `k` and `k + 6` collide on a reducer of
    /// six), the item itself as the value: a group's value order shows
    /// the order its records reached the bucket in.
    struct TraceMapper {
        broken_item: Option<u32>,
    }
    impl Mapper for TraceMapper {
        type In = u32;
        type K = u32;
        type V = u64;
        fn map(&self, item: &u32, emit: &mut dyn FnMut(u32, u64)) {
            if self.broken_item == Some(*item) {
                panic!("permanently broken");
            }
            emit(*item % 12, u64::from(*item));
            if item.is_multiple_of(5) {
                emit((*item + 6) % 12, u64::from(*item) + 1000);
            }
        }
    }

    /// Emits every group exactly as it was lent.
    struct GroupEcho;
    impl Reducer<u32, u64> for GroupEcho {
        type Out = (u32, Vec<u64>);
        fn reduce(&self, key: &u32, values: &[u64], emit: &mut dyn FnMut((u32, Vec<u64>))) {
            emit((*key, values.to_vec()));
        }
    }

    /// Six reducers, of which reducer 3 never receives a key.
    fn skip_three(k: &u32, n: usize) -> usize {
        match *k as usize % n {
            3 => 0,
            r => r,
        }
    }

    /// Everything the shuffle decides: group order and contents per
    /// reducer, record and byte totals, and the per-reducer volumes.
    type ShuffleView = (Vec<(u32, Vec<u64>)>, Vec<u32>, u64, u64, Vec<f64>, Vec<f64>);

    /// With a checkpoint store, item 40 is broken, so map task 4 is
    /// dead-lettered.
    fn shuffle_view(host_threads: usize, checkpoint: Option<&CheckpointStore>) -> ShuffleView {
        use std::sync::Arc;
        let mem = Arc::new(dod_obs::MemoryRecorder::new());
        let obs = Obs::new(mem.clone());
        // 90 items in blocks of 9: ten map tasks; task 4 holds item 40.
        let store = BlockStore::from_items((0..90u32).collect(), 9, 1);
        let cluster = ClusterConfig::new(3)
            .with_host_threads(host_threads)
            .with_retries(0)
            .with_backoff_ms(0);
        let out = run(
            &cluster,
            &store,
            &TraceMapper {
                broken_item: checkpoint.map(|_| 40),
            },
            &GroupEcho,
            &skip_three,
            6,
            JobOptions {
                obs,
                checkpoint,
                ..JobOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            out.outcome,
            match checkpoint {
                Some(_) => JobOutcome::PartialWithDlq { diverted: 1 },
                None => JobOutcome::Complete,
            }
        );
        (
            out.outputs,
            out.key_times.iter().map(|(k, _)| *k).collect(),
            out.metrics.shuffle_records,
            out.metrics.shuffle_bytes,
            mem.observations(names::MAPREDUCE_SHUFFLE_REDUCER_BYTES),
            mem.observations(names::MAPREDUCE_SHUFFLE_REDUCER_RECORDS),
        )
    }

    #[test]
    fn shuffle_is_identical_for_any_host_thread_count() {
        let serial = shuffle_view(1, None);
        let (groups, keys, records, bytes, reducer_bytes, reducer_records) = &serial;
        // 90 records plus one more for each of the 18 multiples of five.
        assert_eq!(*records, 108);
        assert_eq!(*bytes, 108 * 12);
        // Reducer order, then key order; within a group, map-task order
        // then emission order — ascending values here, with the `+1000`
        // record of a multiple of five right where its item put it.
        assert_eq!(keys, &[0, 3, 6, 9, 1, 7, 2, 8, 4, 10, 5, 11]);
        assert_eq!(keys, &groups.iter().map(|(k, _)| *k).collect::<Vec<_>>());
        assert_eq!(groups[0].1, vec![0, 12, 24, 1030, 36, 48, 60, 72, 84]);
        assert!(groups.iter().all(|(_, vs)| {
            let mut plain: Vec<u64> = vs.iter().map(|v| v % 1000).collect();
            let sorted = plain.is_sorted();
            plain.dedup();
            sorted && plain.len() == vs.len()
        }));
        // Reducer 3 is empty: no group, zero volume, still one task.
        assert_eq!(reducer_records[3], 0.0);
        assert_eq!(reducer_bytes[3], 0.0);
        assert_eq!(reducer_bytes.len(), 6);
        assert_eq!(reducer_bytes.iter().sum::<f64>() as u64, *bytes);
        for threads in [2, 5] {
            assert_eq!(
                shuffle_view(threads, None),
                serial,
                "{threads} host threads"
            );
        }
    }

    #[test]
    fn shuffle_skips_a_dead_lettered_map_task_identically_for_any_thread_count() {
        let mut views = Vec::new();
        for threads in [1, 2, 5] {
            let root = ckpt_root(&format!("shuffle-dlq-{threads}"));
            let ck = CheckpointStore::open(&root, "shuffle", &job_fp(10, 6)).unwrap();
            views.push(shuffle_view(threads, Some(&ck)));
            assert_eq!(ck.dlq_snapshot().len(), 1);
            let _ = std::fs::remove_dir_all(&root);
        }
        let (groups, _, records, ..) = &views[0];
        // Map task 4 (items 36..45, one multiple of five) is missing.
        assert_eq!(*records, 108 - 9 - 1);
        assert!(groups
            .iter()
            .all(|(_, vs)| vs.iter().all(|v| !(36..45).contains(&(v % 1000)))));
        assert_eq!(groups[0].1, vec![0, 12, 24, 1030, 48, 60, 72, 84]);
        assert_eq!(views[1], views[0]);
        assert_eq!(views[2], views[0]);
    }

    #[test]
    fn host_thread_helper_keeps_item_order_and_resumes_panics() {
        let squares = on_host_threads(3, (0..40u64).collect(), |x| x * x);
        assert_eq!(squares, (0..40u64).map(|x| x * x).collect::<Vec<_>>());
        assert!(on_host_threads(4, Vec::<u8>::new(), |x| x).is_empty());
        let caught = catch_unwind(AssertUnwindSafe(|| {
            on_host_threads(2, vec![1u32, 2, 3], |x| {
                assert_ne!(x, 2, "boom");
                x
            })
        }));
        assert!(caught.is_err());
    }
}
