# End-to-end test of the smpmsf CLI: generate → info → convert → solve →
# solve --validate, checking exit codes and key output; the converter's
# formats and its file-boundary errors; then the flag parsing of the server
# and the client.
file(MAKE_DIRECTORY ${WORK})

function(run_cli expect_rc out_var)
  execute_process(COMMAND ${CLI} ${ARGN}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL ${expect_rc})
    message(FATAL_ERROR "smpmsf ${ARGN} exited ${rc} (want ${expect_rc}): ${out}${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
  set(cli_err "${err}" PARENT_SCOPE)
endfunction()

run_cli(0 out gen --type random --n 5000 --m 20000 --seed 7 -o ${WORK}/g.gr)
run_cli(0 out info ${WORK}/g.gr)
string(FIND "${out}" "vertices: 5000" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "info output missing vertex count: ${out}")
endif()

run_cli(0 out convert ${WORK}/g.gr ${WORK}/g.smpg)
run_cli(0 out info ${WORK}/g.smpg)

run_cli(0 out solve --alg bor-fal --threads 4 --validate ${WORK}/g.smpg)
string(FIND "${out}" "validation: OK" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "solve output missing validation: ${out}")
endif()

run_cli(0 out_a solve --alg kruskal ${WORK}/g.gr)
run_cli(0 out_b solve --alg mst-bc --threads 3 ${WORK}/g.gr)
string(REGEX MATCH "weight [0-9.]+" wa "${out_a}")
string(REGEX MATCH "weight [0-9.]+" wb "${out_b}")
if(NOT wa STREQUAL wb)
  message(FATAL_ERROR "weights differ across algorithms: '${wa}' vs '${wb}'")
endif()

# Compressed solves: Champion streams from the .smpz rows and Bor-FAL
# decodes them eagerly; both print the .gr solve's forest weight.
run_cli(0 out convert ${WORK}/g.gr ${WORK}/g.smpz)
foreach(alg champion bor-fal)
  run_cli(0 out solve --alg ${alg} --threads 4 --validate ${WORK}/g.smpz)
  string(FIND "${out}" "validation: OK" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR ".smpz solve --alg ${alg} did not validate: ${out}")
  endif()
  string(REGEX MATCH "weight [0-9.]+" wz "${out}")
  if(NOT wz STREQUAL wa)
    message(FATAL_ERROR ".smpz solve --alg ${alg}: '${wz}' vs .gr '${wa}'")
  endif()
endforeach()

run_cli(0 out cc ${WORK}/g.gr)
# cc runs on one thread and says nothing about a thread count.
if(NOT out MATCHES "components: [0-9]+ \\([0-9.]+s\\)" OR out MATCHES "p=")
  message(FATAL_ERROR "cc output: ${out}")
endif()

# Execution-budget flags: a generous timeout still solves; degradation under
# a tiny memory cap still yields a valid forest (and says so).
run_cli(0 out solve --alg bor-el --threads 4 --timeout 600 --validate ${WORK}/g.gr)
run_cli(0 out solve --alg bor-alm --threads 4 --mem-cap 8192
        --validate ${WORK}/g.gr)
string(FIND "${out}" "degraded to sequential" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "mem-cap solve did not report degradation: ${out}")
endif()

# Batch-dynamic mode: replay an update trace, then check the maintained
# forest is bit-identical to a from-scratch recompute of the final graph.
file(WRITE ${WORK}/trace.txt
"c cli_test update trace
i 1 2 0.00001
i 2 3 0.00002
i 10 20 0.5
d 1 2
i 4 5 0.00003
d 2 3
d 10 20
")
run_cli(0 out solve --mode dynamic --alg bor-fal --threads 4 --batch-size 3
        --update-trace ${WORK}/trace.txt --validate ${WORK}/g.gr)
string(FIND "${out}" "validation: OK" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "dynamic solve not bit-identical to recompute: ${out}")
endif()
# One batch for the whole trace: its `d 1 2` depends on the batch's own
# `i 1 2`, so the batch is cut there, and the result is the one-op-per-batch
# forest.
run_cli(0 out_one solve --mode dynamic --alg bor-fal --batch-size 1
        --update-trace ${WORK}/trace.txt --validate ${WORK}/g.gr)
run_cli(0 out_all solve --mode dynamic --alg bor-fal --batch-size 1000
        --update-trace ${WORK}/trace.txt --validate ${WORK}/g.gr)
string(REGEX MATCH "forest: [^;]*" forest_one "${out_one}")
string(REGEX MATCH "forest: [^;]*" forest_all "${out_all}")
if(NOT out_all MATCHES "validation: OK" OR forest_one STREQUAL ""
   OR NOT forest_one STREQUAL forest_all)
  message(FATAL_ERROR "--batch-size 1000 vs 1: '${forest_all}' vs '${forest_one}': ${out_all}")
endif()
# A dynamic run decodes a .smpz into the same canonical edge list.
run_cli(0 out solve --mode dynamic --alg bor-fal --threads 4 --batch-size 3
        --update-trace ${WORK}/trace.txt --validate ${WORK}/g.smpz)
if(NOT out MATCHES "validation: OK")
  message(FATAL_ERROR "dynamic solve of g.smpz not bit-identical: ${out}")
endif()
run_cli(0 out solve --mode static --alg bor-fal ${WORK}/g.gr)

# Error paths, one per exit code class.  Unknown enum values are invalid
# input (exit 3) and must list the accepted spellings.
run_cli(3 out solve --alg no-such-alg ${WORK}/g.gr)
# Removed algorithms are unknown names like any other.
foreach(removed sample-filter par-kruskal filter-kruskal bor-uf)
  run_cli(3 out solve --alg ${removed} ${WORK}/g.gr)
  string(FIND "${cli_err}" "unknown algorithm '${removed}' (valid: " pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "--alg ${removed}: no valid-list diagnostic: ${cli_err}")
  endif()
  string(REGEX MATCH "\\(valid: [^)]*\\)" valid "${cli_err}")
  string(REGEX REPLACE "^\\(valid:|\\)$" " " valid "${valid}")
  string(FIND "${valid}" " ${removed} " pos)
  if(NOT pos EQUAL -1)
    message(FATAL_ERROR "--alg ${removed} still in the valid list: ${cli_err}")
  endif()
endforeach()
run_cli(3 out solve --mode no-such-mode ${WORK}/g.gr)
run_cli(3 out solve --mode dynamic --update-trace ${WORK}/does-not-exist.txt ${WORK}/g.gr)
run_cli(2 out solve --mode dynamic ${WORK}/g.gr)  # missing --update-trace: usage
run_cli(2 out bogus-command)
run_cli(5 out solve --alg bor-fal --threads 4 --timeout 0 ${WORK}/g.gr)
run_cli(6 out solve --alg bor-alm --threads 4 --mem-cap 8192
        --no-fallback ${WORK}/g.gr)
# A trace deleting a dead edge is invalid input: the graph is simple after
# canonicalized load, so the second delete of {1,2} must fail whether or not
# the pair existed initially.
file(WRITE ${WORK}/bad_trace.txt "d 1 2\nd 1 2\n")
run_cli(3 out solve --mode dynamic --update-trace ${WORK}/bad_trace.txt ${WORK}/g.gr)
# Flags a subcommand does not read (--compact-live-threshold is not a solve
# flag), and numbers that do not parse in full, are usage errors (exit 2)
# naming the flag — never silently ignored or truncated.
run_cli(2 out solve --compact-live-threshold 0.5 ${WORK}/g.gr)
string(FIND "${cli_err}" "unknown flag --compact-live-threshold" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "removed flag not named in the usage error: ${cli_err}")
endif()
run_cli(2 out solve --bogus 1 ${WORK}/g.gr)
run_cli(2 out solve --timeout banana ${WORK}/g.gr)
string(FIND "${cli_err}" "--timeout" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "malformed --timeout not named in the usage error: ${cli_err}")
endif()
run_cli(2 out solve --threads 4x ${WORK}/g.gr)
run_cli(2 out gen --type random --n 1e3 --m 3000 -o ${WORK}/bad.gr)
# Each number parses as the type it is used as: a value that type cannot
# hold (2^32 + 100 vertices, k = 2^32 + 6, p = 2^32 + 2) is malformed, never
# narrowed to 100, 6 or 2.
foreach(bad "--n;gen --type random --n 4294967396 --m 300 -o ${WORK}/bad.gr"
            "--k;gen --type geometric --n 300 --k 4294967302 -o ${WORK}/bad.gr"
            "--threads;solve --threads 4294967298 ${WORK}/g.gr")
  list(POP_FRONT bad flag)
  string(REPLACE " " ";" args "${bad}")
  run_cli(2 out ${args})
  string(FIND "${cli_err}" "malformed number for ${flag}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "out-of-range ${flag} not named in the usage error: ${cli_err}")
  endif()
endforeach()
# Removed flags: --compact-sort (the compact always runs the packed radix
# sort), --auto-tune (the cutoffs are compile-time constants), --find-min
# (Bor-EL, Bor-FAL and Champion have one find-min kernel) and --graph-format
# (storage follows the extension: a .smpz solves compressed).
foreach(removed "--compact-sort;radix" "--auto-tune" "--find-min;scan"
                "--graph-format;compressed")
  run_cli(2 out solve ${removed} ${WORK}/g.gr)
  list(GET removed 0 flag)
  string(FIND "${cli_err}" "unknown flag ${flag}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "removed flag ${flag} not named in the usage error: ${cli_err}")
  endif()
endforeach()
# cc runs on one thread: --threads is not a cc flag, whatever its value.
foreach(p 4 4294967298)
  run_cli(2 out cc --threads ${p} ${WORK}/g.gr)
  string(FIND "${cli_err}" "unknown flag --threads" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "cc --threads ${p} not named in the usage error: ${cli_err}")
  endif()
endforeach()
# The stats JSON names no find-min kernel, only what Bor-FAL's cursors
# pruned: bor-al has no packed find-min, so it reports 0 pruned arcs.
run_cli(0 out solve --alg bor-al --stats-json ${WORK}/stats.json ${WORK}/g.gr)
file(READ ${WORK}/stats.json stats)
if(stats MATCHES "\"resolved\"" OR stats MATCHES "\"mode\"")
  message(FATAL_ERROR "stats JSON names a find-min kernel: ${stats}")
endif()
if(NOT stats MATCHES "\"find_min\": {\"pruned_arcs\": 0}")
  message(FATAL_ERROR "stats JSON lacks find_min.pruned_arcs: ${stats}")
endif()

# The converter: .smpz through the run sort and merge.  A duplicate-heavy DIMACS file (every pair 1-8 times, in both orientations,
# with tied weights) converts to byte-identical .smpz files with one run and
# with runs of 7 edges, and the .gr and both .smpz files solve to one weight.
set(seed 12345)
set(lines "")
set(m 0)
foreach(pair RANGE 299)
  math(EXPR seed "(${seed} * 1103515245 + 12345) % 2147483648")
  math(EXPR u "${seed} % 40 + 1")
  math(EXPR seed "(${seed} * 1103515245 + 12345) % 2147483648")
  math(EXPR v "(${u} + ${seed} % 39) % 40 + 1")
  math(EXPR seed "(${seed} * 1103515245 + 12345) % 2147483648")
  math(EXPR copies "${seed} % 8")
  foreach(c RANGE ${copies})
    math(EXPR seed "(${seed} * 1103515245 + 12345) % 2147483648")
    math(EXPR w "${seed} % 4 + 1")
    math(EXPR flip "(${seed} / 4) % 2")
    if(flip)
      string(APPEND lines "e ${v} ${u} 0.${w}5\n")
    else()
      string(APPEND lines "e ${u} ${v} 0.${w}5\n")
    endif()
    math(EXPR m "${m} + 1")
  endforeach()
endforeach()
file(WRITE ${WORK}/dup.gr "c duplicate-heavy\np edge 40 ${m}\n${lines}")
run_cli(0 out convert ${WORK}/dup.gr ${WORK}/dup.smpz)
run_cli(0 out convert --run-edges 7 ${WORK}/dup.gr ${WORK}/dup7.smpz)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${WORK}/dup.smpz
                        ${WORK}/dup7.smpz RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--run-edges 7 wrote a different .smpz than one run")
endif()
run_cli(0 out solve --validate ${WORK}/dup.gr)
string(REGEX MATCH "weight [0-9.]+" wdup "${out}")
foreach(z dup.smpz dup7.smpz)
  run_cli(0 out solve --validate ${WORK}/${z})
  string(REGEX MATCH "weight [0-9.]+" wz "${out}")
  if(NOT out MATCHES "validation: OK" OR NOT wz STREQUAL wdup)
    message(FATAL_ERROR "${z}: '${wz}' vs .gr '${wdup}': ${out}")
  endif()
endforeach()
# A DIMACS comment of any length is skipped.
string(REPEAT "x" 300 long)
file(WRITE ${WORK}/long.gr "c ${long}\np edge 3 2\nc ${long}\ne 1 2 0.5\ne 2 3 0.25\n")
run_cli(0 out convert ${WORK}/long.gr ${WORK}/long.smpz)
run_cli(2 out convert --run-edges -1 ${WORK}/g.gr ${WORK}/g.smpz)
if(NOT cli_err MATCHES "malformed number for --run-edges")
  message(FATAL_ERROR "convert --run-edges -1: ${cli_err}")
endif()

# Bad bytes at the file boundary are invalid input (exit 3) for every
# command, and a failed conversion leaves no output file.
file(WRITE ${WORK}/loop.gr "p edge 3 1\ne 2 2 0.1\n")
file(WRITE ${WORK}/short.gr "p edge 3 5\ne 1 2 0.5\ne 2 3 0.25\n")
file(WRITE ${WORK}/long_count.gr "p edge 3 1\ne 1 2 0.5\ne 2 3 0.25\n")
execute_process(COMMAND head -c 50 ${WORK}/g.smpg
                OUTPUT_FILE ${WORK}/trunc.smpg RESULT_VARIABLE rc)  # 1.9 records
foreach(bad loop.gr short.gr long_count.gr trunc.smpg)
  run_cli(3 out solve ${WORK}/${bad})
  run_cli(3 out info ${WORK}/${bad})
  foreach(ext smpz smpg gr)
    file(REMOVE ${WORK}/out.${ext})
    run_cli(3 out convert ${WORK}/${bad} ${WORK}/out.${ext})
    if(EXISTS ${WORK}/out.${ext} OR EXISTS ${WORK}/out.${ext}.tmp)
      message(FATAL_ERROR "convert ${bad} -> out.${ext} failed but left a file")
    endif()
  endforeach()
endforeach()
if(NOT cli_err MATCHES "truncated at edge record 1")
  message(FATAL_ERROR "trunc.smpg: no truncation diagnostic: ${cli_err}")
endif()
# .slab is no longer a format: a leftover one (SMPB header, n = 3, one
# record) reads as DIMACS text and is invalid input naming the path.
execute_process(COMMAND printf "SMPB\\001\\000\\000\\000\\003\\000\\000\\000\\000\\000\\000\\000\\001\\000\\000\\000\\000\\000\\000\\000\\000\\000\\000\\000\\001\\000\\000\\000\\000\\000\\000\\000\\000\\000\\360\\077"
                OUTPUT_FILE ${WORK}/old.slab RESULT_VARIABLE rc)
file(READ ${WORK}/old.slab magic LIMIT 4 HEX)
if(NOT magic STREQUAL "534d5042")
  message(FATAL_ERROR "old.slab does not start with SMPB: ${magic}")
endif()
foreach(cmd solve info convert)
  set(args ${cmd} ${WORK}/old.slab)
  if(cmd STREQUAL "convert")
    list(APPEND args ${WORK}/old.smpz)
  endif()
  run_cli(3 out ${args})
  if(NOT cli_err MATCHES "old\\.slab: ")
    message(FATAL_ERROR "${cmd} old.slab: no diagnostic naming the file: ${cli_err}")
  endif()
endforeach()

# The server parses --alg through the same table as the CLI.  Parsing stops
# at the first bad argument, so `--alg champion --listen bogus:` reaching
# the listen-spec usage error (exit 2) shows champion was accepted.
execute_process(COMMAND ${SERVER} --alg champion --listen bogus:1
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 2 OR NOT err MATCHES "bad listen spec")
  message(FATAL_ERROR "server rejected --alg champion (exit ${rc}): ${err}")
endif()
foreach(removed sample-filter par-kruskal filter-kruskal bor-uf)
  execute_process(COMMAND ${SERVER} --alg ${removed} --listen bogus:1
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 3 OR NOT err MATCHES "unknown algorithm '${removed}' \\(valid: ")
    message(FATAL_ERROR "server --alg ${removed} exited ${rc}: ${err}")
  endif()
  string(REGEX MATCH "\\(valid: [^)]*\\)" valid "${err}")
  string(REGEX REPLACE "^\\(valid:|\\)$" " " valid "${valid}")
  string(FIND "${valid}" " ${removed} " pos)
  if(NOT pos EQUAL -1)
    message(FATAL_ERROR "server --alg ${removed} still in the valid list: ${err}")
  endif()
endforeach()
execute_process(COMMAND ${SERVER} --auto-tune
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 2 OR NOT err MATCHES "unknown flag --auto-tune")
  message(FATAL_ERROR "server --auto-tune exited ${rc}: ${err}")
endif()
# The server's numeric flags parse in full: a trailing "x", a word, or a
# negative count for an unsigned flag is a usage error naming the flag.
foreach(bad "--threads;4x" "--shards;banana" "--queue-cap;-1")
  list(GET bad 0 flag)
  execute_process(COMMAND ${SERVER} ${bad} --listen bogus:1
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "malformed number for ${flag}")
    message(FATAL_ERROR "server ${bad} exited ${rc}: ${err}")
  endif()
endforeach()
# So do the client's, its tcp:// port included; each is rejected before any
# connection is opened.
foreach(bad "--clients;4x" "--socket;tcp://localhost:12ab")
  list(GET bad 0 flag)
  execute_process(COMMAND ${CLIENT} --socket ${WORK}/none.sock ${bad} -e ping
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "malformed number for ${flag}")
    message(FATAL_ERROR "client ${bad} exited ${rc}: ${err}")
  endif()
endforeach()
