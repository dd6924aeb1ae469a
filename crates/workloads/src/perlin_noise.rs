//! Perlin Noise (Table I: "noise generation to improve realism in
//! motion pictures", 65536 pixels, 2048-pixel blocks): each frame
//! renders fractal Perlin noise into a pixel buffer, blocked. Blocks
//! are independent within a frame; frames chain per block through
//! write-after-write dependencies — a wide, shallow, compute-only
//! graph of many fine-grained tasks (the paper counts it in its
//! 25k–48k-task group).

use std::sync::Arc;

use dataflow_rt::{DataArena, Region, TaskGraph, TaskSpec};

use crate::kernels::Perlin;
use crate::{no_verify, BuiltWorkload, Scale, Workload, WorkloadKind};

/// Perlin workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct PerlinConfig {
    /// Total pixels (a `width × width` image).
    pub pixels: usize,
    /// Pixels per task block.
    pub block: usize,
    /// Frames rendered (each re-renders every block).
    pub frames: usize,
    /// Fractal octaves per pixel.
    pub octaves: u32,
}

impl PerlinConfig {
    /// Configuration for a scale preset.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Small => PerlinConfig {
                pixels: 4096,
                block: 512,
                frames: 4,
                octaves: 4,
            },
            Scale::Medium => PerlinConfig {
                pixels: 65536,
                block: 2048,
                frames: 32,
                octaves: 4,
            },
            // Table I: 65536 pixels, block 2048; frames chosen to land
            // in the paper's 25k–48k fine-task regime.
            Scale::Paper => PerlinConfig {
                pixels: 65536,
                block: 2048,
                frames: 1000,
                octaves: 4,
            },
            // 32 blocks × 32768 frames = 1,048,576 tasks.
            Scale::Huge => PerlinConfig {
                pixels: 65536,
                block: 2048,
                frames: 32768,
                octaves: 4,
            },
        }
    }

    /// Tasks the configuration generates (`frames × blocks`).
    pub fn task_count(&self) -> usize {
        self.frames * self.blocks()
    }

    /// Image width (pixels are a square image).
    pub fn width(&self) -> usize {
        (self.pixels as f64).sqrt() as usize
    }

    /// Blocks per frame.
    pub fn blocks(&self) -> usize {
        self.pixels / self.block
    }
}

/// Renders one block of one frame (shared by tasks and the verifier).
fn render_block(
    perlin: &Perlin,
    out: &mut [f64],
    block_start: usize,
    width: usize,
    frame: usize,
    octaves: u32,
) {
    let inv = 8.0 / width as f64;
    let (fx, fy) = (frame as f64 * 0.17, frame as f64 * 0.13);
    perlin.fbm2_fill(out, octaves, |k| {
        let px = block_start + k;
        let x = (px % width) as f64 * inv + fx;
        let y = (px / width) as f64 * inv + fy;
        (x, y)
    });
}

/// The Perlin Noise benchmark.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerlinNoise;

impl Workload for PerlinNoise {
    fn name(&self) -> &'static str {
        "Perlin"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::SharedMemory
    }

    fn paper_config(&self) -> &'static str {
        "Array of pixels with size of 65536, block size 2048"
    }

    fn build(&self, scale: Scale, _nodes: usize, materialize: bool) -> BuiltWorkload {
        let cfg = PerlinConfig::at(scale);
        let mut arena = DataArena::new();
        let img = if materialize {
            arena.alloc("image", cfg.pixels)
        } else {
            arena.alloc_virtual("image", cfg.pixels)
        };
        let perlin = Arc::new(Perlin::new(2016));
        let width = cfg.width();

        let mut graph = TaskGraph::with_chunk_size(cfg.block);
        // ~36 flops per octave per pixel (fade/lerp/grad arithmetic).
        let flops = (cfg.block as u32 * cfg.octaves * 36) as f64;
        for frame in 0..cfg.frames {
            for blk in 0..cfg.blocks() {
                let p = Arc::clone(&perlin);
                let (bs, oct) = (cfg.block, cfg.octaves);
                graph.submit(
                    TaskSpec::new("render")
                        .writes(Region::contiguous(img, blk * bs, bs))
                        .flops(flops)
                        .kernel(move |ctx| {
                            let mut out = ctx.w(0);
                            render_block(&p, out.as_mut_slice(), blk * bs, width, frame, oct);
                        }),
                );
            }
        }

        let placement = vec![0; graph.len()];
        let verify: crate::Verifier = if materialize {
            let p = Arc::clone(&perlin);
            Box::new(move |arena: &mut DataArena| {
                // The image must equal the last frame, bit for bit (the
                // verifier runs the same kernel).
                let mut want = vec![0.0; cfg.pixels];
                for blk in 0..cfg.blocks() {
                    render_block(
                        &p,
                        &mut want[blk * cfg.block..(blk + 1) * cfg.block],
                        blk * cfg.block,
                        width,
                        cfg.frames - 1,
                        cfg.octaves,
                    );
                }
                let got = arena.read(img);
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    if g.to_bits() != w.to_bits() {
                        return Err(format!("pixel {i}: got {g}, want {w}"));
                    }
                }
                Ok(())
            })
        } else {
            no_verify()
        };

        BuiltWorkload {
            arena,
            graph,
            placement,
            verify,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow_rt::Executor;

    #[test]
    fn small_perlin_verifies_sequential() {
        let built = PerlinNoise.build(Scale::Small, 1, true);
        let BuiltWorkload {
            mut arena,
            graph,
            verify,
            ..
        } = built;
        Executor::sequential().run(&graph, &mut arena);
        verify(&mut arena).expect("perlin results");
    }

    #[test]
    fn small_perlin_verifies_parallel() {
        let built = PerlinNoise.build(Scale::Small, 1, true);
        let BuiltWorkload {
            mut arena,
            graph,
            verify,
            ..
        } = built;
        Executor::new(4).run(&graph, &mut arena);
        verify(&mut arena).expect("perlin results");
    }

    #[test]
    fn frames_chain_blocks_in_order() {
        let built = PerlinNoise.build(Scale::Small, 1, false);
        let g = &built.graph;
        let nb = PerlinConfig::at(Scale::Small).blocks();
        // Frame 1's block 0 task depends (WAW) on frame 0's block 0.
        let f1b0 = dataflow_rt::TaskId::from_raw(nb as u32);
        assert!(g
            .predecessors(f1b0)
            .contains(&dataflow_rt::TaskId::from_raw(0)));
        // Blocks within a frame are independent.
        assert!(g.predecessors(dataflow_rt::TaskId::from_raw(1)).is_empty());
    }

    #[test]
    fn paper_scale_lands_in_fine_task_regime() {
        let built = PerlinNoise.build(Scale::Paper, 1, false);
        assert!(
            built.graph.len() >= 25_000 && built.graph.len() <= 48_000,
            "{} tasks",
            built.graph.len()
        );
    }

    #[test]
    fn noise_values_are_bounded() {
        let built = PerlinNoise.build(Scale::Small, 1, true);
        let BuiltWorkload {
            mut arena, graph, ..
        } = built;
        Executor::sequential().run(&graph, &mut arena);
        let img_id = dataflow_rt::BufferId::from_raw(0);
        assert!(arena.read(img_id).iter().all(|v| v.abs() <= 4.0));
    }
}
