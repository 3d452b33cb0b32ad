//! End-to-end machine tests: assemble → link → run.

use bomblab_isa::asm::assemble;
use bomblab_isa::link::Linker;
use bomblab_isa::{sys, trap, Insn, Reg};
use bomblab_vm::{Machine, MachineConfig, RunStatus, SysEffect};

fn build(src: &str) -> bomblab_isa::image::Image {
    let obj = assemble(src).expect("assembly");
    Linker::new().add_object(obj).link().expect("link")
}

fn run_with(src: &str, config: MachineConfig) -> (RunStatus, Machine) {
    let image = build(src);
    let mut machine = Machine::load(&image, None, config).expect("load");
    let result = machine.run();
    (result.status, machine)
}

fn run(src: &str) -> (RunStatus, Machine) {
    run_with(src, MachineConfig::default())
}

#[test]
fn exit_code_is_reported() {
    let (status, _) = run(r#"
        .global _start
    _start:
        li a0, 42
        li sv, 0
        sys
        "#);
    assert_eq!(status, RunStatus::Exited(42));
}

#[test]
fn main_return_falls_into_exit_stub() {
    // `_start` just returns; ra points at the VM exit stub, so the return
    // value in a0 becomes the exit code.
    let (status, _) = run(r#"
        .global _start
    _start:
        li a0, 9
        ret
        "#);
    assert_eq!(status, RunStatus::Exited(9));
}

#[test]
fn write_to_stdout_is_captured() {
    let (status, machine) = run(r#"
        .data
    msg: .asciz "hello, vm\n"
        .text
        .global _start
    _start:
        li a0, 1        # stdout
        li a1, msg
        li a2, 10
        li sv, 1        # write
        sys
        li a0, 0
        li sv, 0
        sys
        "#);
    assert_eq!(status, RunStatus::Exited(0));
    assert_eq!(machine.stdout(), b"hello, vm\n");
}

#[test]
fn argv_is_laid_out_for_the_program() {
    // Exit with the first byte of argv[1].
    let src = r#"
        .global _start
    _start:
        ld a1, [a1+8]   # argv[1]
        lbu a0, [a1]
        li sv, 0
        sys
        "#;
    let (status, _) = run_with(src, MachineConfig::with_arg("Z rest"));
    assert_eq!(status, RunStatus::Exited(b'Z' as i64));
}

#[test]
fn file_round_trip_through_the_simulated_fs() {
    let src = r#"
        .data
    path: .asciz "tmp.dat"
    buf:  .space 16
        .text
        .global _start
    _start:
        # open("tmp.dat", O_WRONLY)
        li a0, path
        li a1, 1
        li sv, 3
        sys
        mov s0, a0          # fd
        # write(fd, path, 3) -- writes "tmp"
        mov a0, s0
        li a1, path
        li a2, 3
        li sv, 1
        sys
        # close(fd)
        mov a0, s0
        li sv, 4
        sys
        # open("tmp.dat", O_RDONLY)
        li a0, path
        li a1, 0
        li sv, 3
        sys
        mov s0, a0
        # read(fd, buf, 16)
        mov a0, s0
        li a1, buf
        li a2, 16
        li sv, 2
        sys
        # exit(first byte read)
        li a1, buf
        lbu a0, [a1]
        li sv, 0
        sys
        "#;
    let (status, machine) = run(src);
    assert_eq!(status, RunStatus::Exited(b't' as i64));
    assert_eq!(machine.os().file("tmp.dat"), Some(&b"tmp"[..]));
}

#[test]
fn open_missing_file_for_read_fails() {
    let src = r#"
        .data
    path: .asciz "nope"
        .text
        .global _start
    _start:
        li a0, path
        li a1, 0
        li sv, 3
        sys
        # a0 is -1; exit(a0 + 2) == 1
        addi a0, a0, 2
        li sv, 0
        sys
        "#;
    let (status, _) = run(src);
    assert_eq!(status, RunStatus::Exited(1));
}

#[test]
fn time_syscall_returns_configured_epoch() {
    let src = r#"
        .global _start
    _start:
        li sv, 6
        sys
        li sv, 0
        sys
        "#;
    let config = MachineConfig {
        epoch: 777,
        ..MachineConfig::default()
    };
    let (status, _) = run_with(src, config);
    assert_eq!(status, RunStatus::Exited(777));
}

#[test]
fn unhandled_div_zero_faults_the_process() {
    let (status, _) = run(r#"
        .global _start
    _start:
        li a0, 10
        li a1, 0
        divs a2, a0, a1
        li sv, 0
        sys
        "#);
    match status {
        RunStatus::Faulted { cause, .. } => assert_eq!(cause, trap::DIV_ZERO),
        other => panic!("expected fault, got {other:?}"),
    }
}

#[test]
fn trap_handler_receives_cause_and_resumes() {
    // Install a handler that sets s0 = 99 and resumes after the faulting
    // instruction; then divide by zero and exit with s0.
    let (status, _) = run(r#"
        .global _start
    _start:
        li a0, handler
        li sv, 14            # set_trap_handler
        sys
        li a0, 10
        li a1, 0
        divs a2, a0, a1      # traps; handler resumes after this insn
        mov a0, s0
        li sv, 0
        sys
    handler:
        li s0, 99
        jr tr
        "#);
    assert_eq!(status, RunStatus::Exited(99));
}

#[test]
fn fork_returns_zero_in_child_and_pid_in_parent() {
    // Parent waits for child; child exits 5; parent exits child_status + 1.
    let (status, _) = run(r#"
        .global _start
    _start:
        li sv, 8             # fork
        sys
        beq a0, r0, child
        # parent: waitpid(child)
        li sv, 9
        sys
        addi a0, a0, 1
        li sv, 0
        sys
    child:
        li a0, 5
        li sv, 0
        sys
        "#);
    assert_eq!(status, RunStatus::Exited(6));
}

#[test]
fn pipe_carries_bytes_between_processes() {
    // Parent forks; child writes a byte into the pipe and exits; parent
    // reads it (blocking until available) and exits with it.
    let (status, machine) = run(r#"
        .data
    fds: .space 16
    buf: .space 8
        .text
        .global _start
    _start:
        li a0, fds
        li sv, 10            # pipe
        sys
        li sv, 8             # fork
        sys
        beq a0, r0, child
        # parent: close write end, then read
        li a0, fds
        ld a0, [a0+8]
        li sv, 4             # close(wfd)
        sys
        li a0, fds
        ld a0, [a0]
        li a1, buf
        li a2, 1
        li sv, 2             # read(rfd, buf, 1)
        sys
        li a1, buf
        lbu a0, [a1]
        li sv, 0
        sys
    child:
        li a0, fds
        ld a0, [a0+8]
        li a1, marker
        li a2, 1
        li sv, 1             # write(wfd, marker, 1)
        sys
        li a0, 0
        li sv, 0
        sys
        .data
    marker: .byte 0x5A
        "#);
    assert_eq!(
        status,
        RunStatus::Exited(0x5A),
        "stdout: {:?}",
        machine.stdout()
    );
}

#[test]
fn threads_share_memory_and_join_returns_value() {
    // Spawn a thread that increments a shared cell by 3 and returns 11;
    // main joins, then exits with cell + join value.
    let (status, _) = run(r#"
        .data
    cell: .quad 4
        .text
        .global _start
    _start:
        li a0, worker
        li a1, 3
        li sv, 11            # thread_spawn(worker, 3)
        sys
        # join
        li sv, 12
        sys
        mov s1, a0           # 11
        li a1, cell
        ld a0, [a1]
        add a0, a0, s1       # 7 + 11
        li sv, 0
        sys
    worker:
        li t0, cell
        ld t1, [t0]
        add t1, t1, a0       # cell += arg
        sd [t0], t1
        li a0, 11
        ret                  # returns to THREAD_EXIT stub
        "#);
    assert_eq!(status, RunStatus::Exited(18));
}

#[test]
fn net_get_serves_configured_response() {
    let src = r#"
        .data
    url: .asciz "http://bvm/flag"
    buf: .space 64
        .text
        .global _start
    _start:
        li a0, url
        li a1, buf
        li a2, 64
        li sv, 13            # net_get
        sys
        li a1, buf
        lbu a0, [a1]
        li sv, 0
        sys
        "#;
    let config = MachineConfig {
        net_response: b"Xsecret".to_vec(),
        ..MachineConfig::default()
    };
    let (status, _) = run_with(src, config);
    assert_eq!(status, RunStatus::Exited(b'X' as i64));
}

#[test]
fn infinite_loop_hits_step_budget() {
    let src = r#"
        .global _start
    _start:
        jmp _start
        "#;
    let config = MachineConfig {
        step_budget: 10_000,
        ..MachineConfig::default()
    };
    let (status, _) = run_with(src, config);
    assert_eq!(status, RunStatus::OutOfBudget);
}

#[test]
fn read_from_never_filled_pipe_deadlocks() {
    let (status, _) = run(r#"
        .data
    fds: .space 16
    buf: .space 8
        .text
        .global _start
    _start:
        li a0, fds
        li sv, 10            # pipe
        sys
        li a0, fds
        ld a0, [a0]
        li a1, buf
        li a2, 1
        li sv, 2             # read -- blocks forever (we hold the write end)
        sys
        li a0, 0
        li sv, 0
        sys
        "#);
    assert_eq!(status, RunStatus::Deadlock);
}

#[test]
fn read_from_closed_pipe_returns_eof() {
    let (status, _) = run(r#"
        .data
    fds: .space 16
    buf: .space 8
        .text
        .global _start
    _start:
        li a0, fds
        li sv, 10            # pipe
        sys
        li a0, fds
        ld a0, [a0+8]
        li sv, 4             # close write end
        sys
        li a0, fds
        ld a0, [a0]
        li a1, buf
        li a2, 1
        li sv, 2             # read -> 0 (EOF)
        sys
        li sv, 0
        sys
        "#);
    assert_eq!(status, RunStatus::Exited(0));
}

#[test]
fn trace_records_syscall_effects() {
    let src = r#"
        .data
    msg: .asciz "x"
        .text
        .global _start
    _start:
        li a0, 1
        li a1, msg
        li a2, 1
        li sv, 1
        sys
        li a0, 0
        li sv, 0
        sys
        "#;
    let config = MachineConfig {
        trace: true,
        ..MachineConfig::default()
    };
    let (status, mut machine) = run_with(src, config);
    assert_eq!(status, RunStatus::Exited(0));
    let trace = machine.take_trace();
    assert!(!trace.is_empty());
    let write_step = trace
        .iter()
        .find(|s| s.sys.as_ref().is_some_and(|r| r.num == sys::WRITE))
        .expect("write syscall in trace");
    match &write_step.sys.as_ref().unwrap().effect {
        SysEffect::OutputBytes { bytes, .. } => assert_eq!(bytes, b"x"),
        other => panic!("expected OutputBytes, got {other:?}"),
    }
}

#[test]
fn halt_stops_with_a0_as_exit_code() {
    let (status, _) = run(r#"
        .global _start
    _start:
        li a0, 3
        halt
        "#);
    assert_eq!(status, RunStatus::Exited(3));
}

#[test]
fn stdin_is_readable() {
    let src = r#"
        .data
    buf: .space 8
        .text
        .global _start
    _start:
        li a0, 0
        li a1, buf
        li a2, 4
        li sv, 2
        sys
        li a1, buf
        lbu a0, [a1+1]
        li sv, 0
        sys
        "#;
    let config = MachineConfig {
        stdin: b"abcd".to_vec(),
        ..MachineConfig::default()
    };
    let (status, _) = run_with(src, config);
    assert_eq!(status, RunStatus::Exited(b'b' as i64));
}

#[test]
fn lseek_repositions_reads() {
    let src = r#"
        .data
    path: .asciz "f"
    buf:  .space 8
        .text
        .global _start
    _start:
        li a0, path
        li a1, 0
        li sv, 3         # open read
        sys
        mov s0, a0
        li a1, 2
        li a2, 0
        li sv, 15        # lseek(fd, 2, SET)
        sys
        mov a0, s0
        li a1, buf
        li a2, 1
        li sv, 2
        sys
        li a1, buf
        lbu a0, [a1]
        li sv, 0
        sys
        "#;
    let config = MachineConfig {
        files: vec![("f".to_string(), b"ABCDE".to_vec())],
        ..MachineConfig::default()
    };
    let (status, _) = run_with(src, config);
    assert_eq!(status, RunStatus::Exited(b'C' as i64));
}

#[test]
fn unknown_syscall_returns_minus_one() {
    let (status, _) = run(r#"
        .global _start
    _start:
        li sv, 9999
        sys
        addi a0, a0, 2   # -1 + 2 = 1
        li sv, 0
        sys
        "#);
    assert_eq!(status, RunStatus::Exited(1));
}

#[test]
fn getpid_and_getuid_return_fixed_values() {
    let (status, _) = run(r#"
        .global _start
    _start:
        li sv, 7         # getpid -> 1 (root)
        sys
        mov s0, a0
        li sv, 16        # getuid -> 1000
        sys
        add a0, a0, s0
        li sv, 0
        sys
        "#);
    assert_eq!(status, RunStatus::Exited(1001));
}

#[test]
fn write_to_readonly_fd_fails() {
    let src = r#"
        .data
    path: .asciz "f"
        .text
        .global _start
    _start:
        li a0, path
        li a1, 0
        li sv, 3             # open read-only
        sys
        mov s0, a0
        mov a0, s0
        li a1, path
        li a2, 1
        li sv, 1             # write -> -1
        sys
        addi a0, a0, 2       # -1 + 2 = 1
        li sv, 0
        sys
        "#;
    let config = MachineConfig {
        files: vec![("f".to_string(), b"x".to_vec())],
        ..MachineConfig::default()
    };
    let (status, _) = run_with(src, config);
    assert_eq!(status, RunStatus::Exited(1));
}

#[test]
fn closed_fd_is_reusable_and_stale_handle_fails() {
    let src = r#"
        .data
    p1: .asciz "a"
    p2: .asciz "b"
        .text
        .global _start
    _start:
        li a0, p1
        li a1, 1
        li sv, 3             # open "a" -> fd X
        sys
        mov s0, a0
        mov a0, s0
        li sv, 4             # close X
        sys
        li a0, p2
        li a1, 1
        li sv, 3             # open "b" -> should reuse fd X
        sys
        bne a0, s0, bad
        # write through the stale copy of X? same number now "b"; instead
        # close the new fd twice: second close fails.
        mov a0, s0
        li sv, 4
        sys
        mov a0, s0
        li sv, 4             # double close -> -1
        sys
        addi a0, a0, 2
        li sv, 0
        sys
    bad:
        li a0, 99
        li sv, 0
        sys
        "#;
    let (status, _) = run(src);
    assert_eq!(status, RunStatus::Exited(1));
}

#[test]
fn open_with_bad_flags_fails() {
    let (status, _) = run(r#"
        .data
    p: .asciz "x"
        .text
        .global _start
    _start:
        li a0, p
        li a1, 9             # invalid flags
        li sv, 3
        sys
        addi a0, a0, 2
        li sv, 0
        sys
        "#);
    assert_eq!(status, RunStatus::Exited(1));
}

#[test]
fn lseek_end_and_bad_whence() {
    let src = r#"
        .data
    p: .asciz "f"
        .text
        .global _start
    _start:
        li a0, p
        li a1, 0
        li sv, 3
        sys
        mov s0, a0
        mov a0, s0
        li a1, -2
        li a2, 2             # SEEK_END - 2 => 3
        li sv, 15
        sys
        mov s1, a0
        mov a0, s0
        li a1, 0
        li a2, 7             # bad whence -> -1
        li sv, 15
        sys
        addi a0, a0, 1       # 0
        add a0, a0, s1       # 3
        li sv, 0
        sys
        "#;
    let config = MachineConfig {
        files: vec![("f".to_string(), b"ABCDE".to_vec())],
        ..MachineConfig::default()
    };
    let (status, _) = run_with(src, config);
    assert_eq!(status, RunStatus::Exited(3));
}

#[test]
fn unlink_removes_files() {
    let src = r#"
        .data
    p: .asciz "gone"
        .text
        .global _start
    _start:
        li a0, p
        li sv, 5             # unlink -> 0
        sys
        mov s0, a0
        li a0, p
        li sv, 5             # unlink again -> -1
        sys
        addi a0, a0, 2       # 1
        add a0, a0, s0       # +0
        li sv, 0
        sys
        "#;
    let config = MachineConfig {
        files: vec![("gone".to_string(), b"x".to_vec())],
        ..MachineConfig::default()
    };
    let (status, machine) = run_with(src, config);
    assert_eq!(status, RunStatus::Exited(1));
    assert!(machine.os().file("gone").is_none());
}

#[test]
fn waitpid_for_unrelated_pid_fails() {
    let (status, _) = run(r#"
        .global _start
    _start:
        li a0, 999
        li sv, 9             # waitpid(999) -> -1 (no such child)
        sys
        addi a0, a0, 2
        li sv, 0
        sys
        "#);
    assert_eq!(status, RunStatus::Exited(1));
}

#[test]
fn thread_join_of_unknown_tid_fails() {
    let (status, _) = run(r#"
        .global _start
    _start:
        li a0, 777
        li sv, 12            # thread_join(777) -> -1
        sys
        addi a0, a0, 2
        li sv, 0
        sys
        "#);
    assert_eq!(status, RunStatus::Exited(1));
}

#[test]
fn two_threads_interleave_deterministically() {
    // Two spawned threads each add to a cell with distinct increments; the
    // round-robin scheduler makes the result deterministic across runs.
    let src = r#"
        .data
    cell: .quad 0
        .text
        .global _start
    _start:
        li a0, w1
        li a1, 0
        li sv, 11
        sys
        mov s0, a0
        li a0, w2
        li a1, 0
        li sv, 11
        sys
        mov s1, a0
        mov a0, s0
        li sv, 12
        sys
        mov a0, s1
        li sv, 12
        sys
        li t0, cell
        ld a0, [t0]
        li sv, 0
        sys
    w1:
        li t0, cell
        li t1, 0
    w1l:
        li t2, 100
        bge t1, t2, w1d
        ld t3, [t0]
        addi t3, t3, 1
        sd [t0], t3
        addi t1, t1, 1
        jmp w1l
    w1d:
        li a0, 0
        ret
    w2:
        li t0, cell
        li t1, 0
    w2l:
        li t2, 100
        bge t1, t2, w2d
        ld t3, [t0]
        addi t3, t3, 2
        sd [t0], t3
        addi t1, t1, 1
        jmp w2l
    w2d:
        li a0, 0
        ret
        "#;
    let (s1, _) = run(src);
    let (s2, _) = run(src);
    assert_eq!(s1, s2, "scheduling must be deterministic");
    // The read-modify-write is not atomic: preemption between ld and sd
    // loses updates — real data-race semantics, but deterministically so
    // under the round-robin scheduler.
    let value = s1.exit_code().expect("clean exit");
    assert!(
        (200..=300).contains(&value),
        "lost updates bound the racy sum: {value}"
    );
}

#[test]
fn a_store_into_executed_code_takes_effect_when_it_runs_again() {
    // Self-modifying code: `target` runs once, a byte store rewrites the
    // immediate of its `li`, and the second call must execute the patched
    // instruction rather than a stale decode of the old bytes.
    let encode = |imm| {
        let mut bytes = Vec::new();
        Insn::Li { rd: Reg::A0, imm }.encode(&mut bytes);
        bytes
    };
    let (old, new) = (encode(1), encode(5));
    let at = old
        .iter()
        .zip(&new)
        .position(|(a, b)| a != b)
        .expect("the immediates differ");
    let src = format!(
        r#"
        .global _start
    _start:
        call target
        mov  s2, a0
        li   t5, target
        li   t6, {byte}
        sb   [t5+{at}], t6
        call target
        li   t0, 10
        mul  s2, s2, t0
        add  a0, s2, a0
        li   sv, 0
        sys
    target:
        li   a0, 1
        ret
        "#,
        byte = new[at]
    );
    let config = MachineConfig {
        trace: true,
        ..MachineConfig::default()
    };
    let (status, machine) = run_with(&src, config);
    assert_eq!(
        status,
        RunStatus::Exited(15),
        "first call 1, patched call 5"
    );

    let trace = machine.trace();
    let li_pc = trace
        .iter()
        .find(|s| {
            s.insn
                == Insn::Li {
                    rd: Reg::A0,
                    imm: 1,
                }
        })
        .expect("target ran")
        .pc;
    let runs: Vec<Insn> = trace
        .iter()
        .filter(|s| s.pc == li_pc)
        .map(|s| s.insn)
        .collect();
    assert_eq!(
        runs,
        [
            Insn::Li {
                rd: Reg::A0,
                imm: 1
            },
            Insn::Li {
                rd: Reg::A0,
                imm: 5
            }
        ],
        "the trace records the patched instruction on the second run"
    );
}
