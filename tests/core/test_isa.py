"""Unit tests for the accelerator ISA (Table I) and its functional interpreter."""

import numpy as np
import pytest

from repro.core.isa import (
    AcceleratorInterpreter,
    Instruction,
    InstructionDriver,
    Opcode,
)
from repro.nn.embedding import EmbeddingBag


def test_table1_has_six_opcodes():
    assert {op.value for op in Opcode} == {
        "dmard",
        "dmawr",
        "v_add",
        "v_mul",
        "s_wr",
        "gpu_rd",
    }


def test_driver_builds_dma_read_addresses():
    driver = InstructionDriver(row_bytes=64)
    instr = driver.gather_row_from_cpu(table=2, row=10, base_address=4096)
    assert instr.opcode == Opcode.DMA_READ
    assert instr.operand1 == 4096 + 640
    assert instr.operand2 == 64
    assert instr.table == 2


def test_driver_rejects_invalid_row_bytes():
    with pytest.raises(ValueError):
        InstructionDriver(row_bytes=0)


def make_tables(dim=4):
    rng = np.random.default_rng(0)
    cpu = {0: rng.normal(size=(16, dim))}
    gpu = {0: cpu[0][:8].copy()}  # rows 0-7 replicated on the GPU
    return cpu, gpu


def test_interpreter_pooled_gather_matches_numpy_sum():
    cpu, gpu = make_tables()
    driver = InstructionDriver(row_bytes=cpu[0].shape[1] * cpu[0].itemsize)
    interpreter = AcceleratorInterpreter(cpu, gpu)
    sample_indices = [np.array([1, 9]), np.array([3])]
    program = driver.pooled_gather_program(sample_indices, table=0, hot_rows=np.arange(8))
    buffer = interpreter.execute(program, num_buffer_slots=2)
    np.testing.assert_allclose(buffer[0], cpu[0][1] + cpu[0][9])
    np.testing.assert_allclose(buffer[1], cpu[0][3])


def test_interpreter_gpu_read_of_unreplicated_row_raises():
    cpu, gpu = make_tables()
    interpreter = AcceleratorInterpreter(cpu, gpu)
    program = [Instruction(Opcode.GPU_READ, operand1=0, operand2=12, table=0)]
    with pytest.raises(KeyError):
        interpreter.execute(program, num_buffer_slots=1)


def test_interpreter_scalar_write_records_base_address():
    cpu, gpu = make_tables()
    interpreter = AcceleratorInterpreter(cpu, gpu)
    driver = InstructionDriver(row_bytes=32)
    interpreter.execute([driver.set_base_address(3, 0xDEAD)], num_buffer_slots=1)
    assert interpreter.base_registers[3] == 0xDEAD


def test_interpreter_v_add_before_fetch_raises():
    cpu, gpu = make_tables()
    interpreter = AcceleratorInterpreter(cpu, gpu)
    with pytest.raises(RuntimeError):
        interpreter.execute(
            [Instruction(Opcode.VECTOR_ADD, operand1=0, operand2=0)], num_buffer_slots=1
        )


def test_interpreter_dma_write_updates_cpu_table():
    cpu, gpu = make_tables()
    row_bytes = cpu[0].shape[1] * cpu[0].itemsize
    driver = InstructionDriver(row_bytes=row_bytes)
    interpreter = AcceleratorInterpreter(cpu, gpu, row_bytes=row_bytes)
    program = [
        driver.gather_row_from_cpu(table=0, row=2),
        driver.writeback_row_to_cpu(table=0, row=5),
    ]
    interpreter.execute(program, num_buffer_slots=1)
    np.testing.assert_allclose(cpu[0][5], cpu[0][2])


def test_interpreter_computes_in_the_table_dtype():
    """A float32 table pools in float32: with pooling 6 the interpreter's
    buffer equals ``EmbeddingBag.forward`` bit for bit, whether a row is
    read from the GPU replica or DMA'd from the CPU table."""
    bag = EmbeddingBag((64,), 8, np.random.default_rng(5))
    assert bag.weight.dtype == np.float32
    indices = np.random.default_rng(6).integers(0, 64, size=(16, 6))
    driver = InstructionDriver(row_bytes=bag.dim * bag.weight.itemsize)
    interpreter = AcceleratorInterpreter({0: bag.weight}, {0: bag.weight[:32].copy()})
    program = driver.pooled_gather_program(list(indices), table=0, hot_rows=np.arange(32))
    pooled = interpreter.execute(program, num_buffer_slots=indices.shape[0])
    assert pooled.dtype == np.float32
    np.testing.assert_array_equal(pooled, bag.forward(indices[:, None])[:, 0])
