//! The benchmark's own object type. Its state is `[group u32][counter
//! u64][padding]`, sized per workload; `put` adds to the counter, `get`
//! reads it. Every method records an object-layer span when tracing is on,
//! on whichever thread or process the runtime calls it.

use crate::spans::{self, Kind};
use oml_runtime::MobileObject;

pub const TYPE_TAG: &str = "perfbench";
const HEADER: usize = 12;

pub struct BenchObj {
    state: Vec<u8>,
}

impl BenchObj {
    /// A fresh object of `size` state bytes (at least the header).
    pub fn new(group: u32, size: usize) -> BenchObj {
        let mut state = vec![0u8; size.max(HEADER)];
        state[..4].copy_from_slice(&group.to_le_bytes());
        for (i, b) in state[HEADER..].iter_mut().enumerate() {
            *b = i as u8;
        }
        BenchObj { state }
    }

    fn group(&self) -> u32 {
        u32::from_le_bytes(self.state[..4].try_into().expect("4-byte group"))
    }

    fn counter(&self) -> u64 {
        read_counter(&self.state[4..HEADER]).expect("8-byte counter")
    }
}

/// Decodes a `get`/`put` reply.
pub fn read_counter(bytes: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(bytes.get(..8)?.try_into().ok()?))
}

pub fn put_payload(delta: u64) -> [u8; 8] {
    delta.to_le_bytes()
}

impl MobileObject for BenchObj {
    fn type_tag(&self) -> &'static str {
        TYPE_TAG
    }

    fn invoke(&mut self, method: &str, payload: &[u8]) -> Result<Vec<u8>, String> {
        let group = self.group();
        spans::timed(
            Kind::ObjInvoke,
            group,
            |_| 0,
            || match method {
                "get" => Ok(self.counter().to_le_bytes().to_vec()),
                "put" => {
                    let delta = read_counter(payload).ok_or("put needs an 8-byte delta")?;
                    let value = self.counter().wrapping_add(delta);
                    self.state[4..HEADER].copy_from_slice(&value.to_le_bytes());
                    // touch the padding too, so a write changes more than the header
                    let len = self.state.len() - HEADER;
                    if len > 0 {
                        self.state[HEADER + (value as usize % len)] ^= delta as u8;
                    }
                    Ok(value.to_le_bytes().to_vec())
                }
                other => Err(format!("no such method: {other}")),
            },
        )
    }

    fn linearize(&self) -> Vec<u8> {
        spans::timed(
            Kind::ObjLinearize,
            self.group(),
            |v: &Vec<u8>| v.len() as u32,
            || self.state.clone(),
        )
    }
}

/// The delinearizer registered for [`TYPE_TAG`] in every node and worker.
pub fn delinearize(bytes: &[u8]) -> Box<dyn MobileObject> {
    let group = bytes.get(..4).map_or(spans::NO_GROUP, |g| {
        u32::from_le_bytes(g.try_into().expect("4 bytes"))
    });
    spans::timed(
        Kind::ObjDelinearize,
        group,
        |_| bytes.len() as u32,
        || {
            let mut state = bytes.to_vec();
            state.resize(state.len().max(HEADER), 0);
            Box::new(BenchObj { state }) as Box<dyn MobileObject>
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_and_round_trip() {
        let mut o = BenchObj::new(3, 256);
        assert_eq!(
            o.invoke("put", &put_payload(5)).unwrap(),
            5u64.to_le_bytes()
        );
        assert_eq!(
            o.invoke("put", &put_payload(7)).unwrap(),
            12u64.to_le_bytes()
        );
        let bytes = o.linearize();
        assert_eq!(bytes.len(), 256);
        let mut back = delinearize(&bytes);
        assert_eq!(read_counter(&back.invoke("get", &[]).unwrap()), Some(12));
        assert!(back.invoke("nope", &[]).is_err());
        assert!(back.invoke("put", &[1]).is_err());
    }
}
