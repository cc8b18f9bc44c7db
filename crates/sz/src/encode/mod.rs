//! Entropy and dictionary coders used as the lossless stage of the
//! compression pipeline.

pub mod bitio;
pub mod huffman;
pub mod lz;
pub mod rle;

pub use bitio::BitReader;
#[cfg(test)]
pub use bitio::BitWriter;
pub use huffman::{huffman_decode, huffman_encode, HuffmanTable};
pub use lz::{lz_compress, lz_decompress};
pub use rle::{rle_decode, rle_encode};
