//! Local API-compatible shim (big-endian, matching the real `bytes` crate
//! defaults) for offline builds.

use std::ops::{Deref, DerefMut};

#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bytes {
    data: Vec<u8>,
    pos: usize,
}

impl Bytes {
    pub fn split_to(&mut self, n: usize) -> Bytes {
        let at = self.pos + n;
        assert!(at <= self.data.len(), "split_to out of bounds");
        let head = self.data[self.pos..at].to_vec();
        self.pos = at;
        Bytes { data: head, pos: 0 }
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.data[self.pos..].to_vec()
    }

    pub fn len(&self) -> usize {
        self.data.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes { data, pos: 0 }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.pos..]
    }
}

#[derive(Debug, Clone, Default)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    pub fn new() -> Self {
        BytesMut(Vec::new())
    }

    pub fn with_capacity(cap: usize) -> Self {
        BytesMut(Vec::with_capacity(cap))
    }

    pub fn freeze(self) -> Bytes {
        Bytes {
            data: self.0,
            pos: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn clear(&mut self) {
        self.0.clear();
    }

    pub fn truncate(&mut self, len: usize) {
        self.0.truncate(len);
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

pub trait Buf {
    fn remaining(&self) -> usize;
    fn take_bytes(&mut self, n: usize) -> &[u8];

    fn get_u8(&mut self) -> u8 {
        self.take_bytes(1)[0]
    }

    fn get_u32(&mut self) -> u32 {
        u32::from_be_bytes(self.take_bytes(4).try_into().expect("4 bytes"))
    }

    fn get_u64(&mut self) -> u64 {
        u64::from_be_bytes(self.take_bytes(8).try_into().expect("8 bytes"))
    }

    fn get_i64(&mut self) -> i64 {
        i64::from_be_bytes(self.take_bytes(8).try_into().expect("8 bytes"))
    }

    fn get_f64(&mut self) -> f64 {
        f64::from_be_bytes(self.take_bytes(8).try_into().expect("8 bytes"))
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn take_bytes(&mut self, n: usize) -> &[u8] {
        let at = self.pos + n;
        assert!(at <= self.data.len(), "buffer underflow");
        let out = &self.data[self.pos..at];
        self.pos = at;
        out
    }
}

pub trait BufMut {
    fn put_bytes_raw(&mut self, b: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_bytes_raw(&[v]);
    }

    fn put_u32(&mut self, v: u32) {
        self.put_bytes_raw(&v.to_be_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.put_bytes_raw(&v.to_be_bytes());
    }

    fn put_i64(&mut self, v: i64) {
        self.put_bytes_raw(&v.to_be_bytes());
    }

    fn put_f64(&mut self, v: f64) {
        self.put_bytes_raw(&v.to_be_bytes());
    }

    fn put_slice(&mut self, b: &[u8]) {
        self.put_bytes_raw(b);
    }
}

impl BufMut for BytesMut {
    fn put_bytes_raw(&mut self, b: &[u8]) {
        self.0.extend_from_slice(b);
    }
}
