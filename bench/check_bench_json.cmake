# ctest harness for bench_levelized, two modes:
#
#   smoke      cmake -DBENCH=<bench_levelized> -DJSON=<out.json> \
#                    -P check_bench_json.cmake
#              Runs the bench with a tiny cycle count and validates the
#              emitted BENCH_sim.json against the zeus-bench-sim-v1
#              schema.  (The farm block is sized by time, not by the
#              cycle count, so its scaling gate applies here too.)
#
#   checked-in cmake -DCHECKED_IN=ON -DJSON=<repo bench/BENCH_sim.json> \
#                    -P check_bench_json.cmake
#              Validates the committed artifact without running anything,
#              plus the claim only a real run from a clean tree can make:
#              the build stamp must not be -dirty.
if(NOT JSON)
  message(FATAL_ERROR "pass -DJSON=<path to BENCH_sim.json>")
endif()

if(CHECKED_IN)
  set(expect_cycles 20480)
else()
  if(NOT BENCH)
    message(FATAL_ERROR "pass -DBENCH=<binary> (or -DCHECKED_IN=ON)")
  endif()
  set(expect_cycles 128)
  execute_process(
    COMMAND ${BENCH} --cycles 128 --width 16 --out ${JSON}
    RESULT_VARIABLE rv
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "bench_levelized failed (${rv}):\n${out}\n${err}")
  endif()
endif()

file(READ ${JSON} content)

string(JSON schema ERROR_VARIABLE jerr GET "${content}" schema)
if(jerr OR NOT schema STREQUAL "zeus-bench-sim-v1")
  message(FATAL_ERROR "bad schema field: '${schema}' ${jerr}")
endif()

string(JSON ncyc GET "${content}" cycles)
if(NOT ncyc EQUAL expect_cycles)
  message(FATAL_ERROR "cycles field ${ncyc} != ${expect_cycles}")
endif()

string(JSON nevals LENGTH "${content}" evaluators)
if(NOT nevals EQUAL 4)
  message(FATAL_ERROR "expected 4 evaluator entries, got ${nevals}")
endif()

set(want_names "naive;firing;levelized;levelized-batch")
math(EXPR last "${nevals} - 1")
foreach(i RANGE ${last})
  string(JSON name GET "${content}" evaluators ${i} name)
  list(GET want_names ${i} want)
  if(NOT name STREQUAL want)
    message(FATAL_ERROR "evaluator ${i} named '${name}', expected '${want}'")
  endif()
  foreach(field cycles_per_sec lane_cycles seconds checksum)
    string(JSON v ERROR_VARIABLE jerr GET "${content}" evaluators ${i} ${field})
    if(jerr)
      message(FATAL_ERROR "evaluator ${i} missing field '${field}': ${jerr}")
    endif()
  endforeach()
  string(JSON cps GET "${content}" evaluators ${i} cycles_per_sec)
  if(cps LESS_EQUAL 0)
    message(FATAL_ERROR "evaluator ${i} cycles_per_sec not positive: ${cps}")
  endif()
  # Embedded metrics block: every evaluator entry must carry its counter
  # snapshot, and on a real run the work counters cannot be zero.
  foreach(field ran evaluator node_firings net_resolutions contention_checks
                epoch_resets faults)
    string(JSON v ERROR_VARIABLE jerr GET "${content}" evaluators ${i}
           metrics ${field})
    if(jerr)
      message(FATAL_ERROR "evaluator ${i} metrics missing '${field}': ${jerr}")
    endif()
  endforeach()
  string(JSON mran GET "${content}" evaluators ${i} metrics ran)
  if(NOT mran STREQUAL "ON")
    message(FATAL_ERROR "evaluator ${i} metrics.ran = ${mran}")
  endif()
  string(JSON firings GET "${content}" evaluators ${i} metrics node_firings)
  if(firings LESS_EQUAL 0)
    message(FATAL_ERROR "evaluator ${i} metrics.node_firings = ${firings}")
  endif()
  string(JSON resolutions GET "${content}" evaluators ${i} metrics
         net_resolutions)
  if(resolutions LESS_EQUAL 0)
    message(FATAL_ERROR
            "evaluator ${i} metrics.net_resolutions = ${resolutions}")
  endif()
endforeach()

foreach(field speedup_levelized_vs_firing speedup_batch_vs_firing)
  string(JSON v ERROR_VARIABLE jerr GET "${content}" ${field})
  if(jerr)
    message(FATAL_ERROR "missing '${field}': ${jerr}")
  endif()
endforeach()

# fault_campaign: the parallel fault-simulation throughput block.
foreach(field faults cycles batches seconds faults_per_sec lane_utilization
              detected masked undetected coverage)
  string(JSON v ERROR_VARIABLE jerr GET "${content}" fault_campaign ${field})
  if(jerr)
    message(FATAL_ERROR "fault_campaign missing '${field}': ${jerr}")
  endif()
endforeach()
string(JSON nfaults GET "${content}" fault_campaign faults)
string(JSON fdet GET "${content}" fault_campaign detected)
string(JSON fmask GET "${content}" fault_campaign masked)
string(JSON fundet GET "${content}" fault_campaign undetected)
math(EXPR fsum "${fdet} + ${fmask} + ${fundet}")
if(NOT fsum EQUAL nfaults OR nfaults LESS_EQUAL 0)
  message(FATAL_ERROR
          "fault_campaign counts inconsistent: ${fdet}+${fmask}+${fundet} != ${nfaults}")
endif()
string(JSON fps GET "${content}" fault_campaign faults_per_sec)
if(fps LESS_EQUAL 0)
  message(FATAL_ERROR "fault_campaign.faults_per_sec = ${fps}")
endif()
string(JSON futil GET "${content}" fault_campaign lane_utilization)
if(futil LESS_EQUAL 0 OR futil GREATER 1)
  message(FATAL_ERROR "fault_campaign.lane_utilization = ${futil}")
endif()
string(JSON fcov GET "${content}" fault_campaign coverage)
if(fcov LESS 0 OR fcov GREATER 1)
  message(FATAL_ERROR "fault_campaign.coverage = ${fcov}")
endif()

# optimization: the pass-pipeline benefit block (docs/optimizer.md).
# Structural claims are asserted hard (the dead cone must actually be
# removed and behaviour preserved); the wall-clock speedup only has to be
# positive — a 128-cycle smoke run is too short to bound timing noise.
foreach(field design folded removed dropped speedup_on_vs_off)
  string(JSON v ERROR_VARIABLE jerr GET "${content}" optimization ${field})
  if(jerr)
    message(FATAL_ERROR "optimization missing '${field}': ${jerr}")
  endif()
endforeach()
string(JSON onodes_before GET "${content}" optimization nodes before)
string(JSON onodes_after GET "${content}" optimization nodes after)
if(NOT onodes_after LESS onodes_before)
  message(FATAL_ERROR
          "optimization removed nothing (${onodes_before} -> ${onodes_after} nodes)")
endif()
string(JSON onets_before GET "${content}" optimization nets before)
string(JSON onets_after GET "${content}" optimization nets after)
if(onets_after GREATER onets_before)
  message(FATAL_ERROR
          "optimization grew the dense net count (${onets_before} -> ${onets_after})")
endif()
string(JSON ock_off GET "${content}" optimization off checksum)
string(JSON ock_on GET "${content}" optimization on checksum)
if(NOT ock_off EQUAL ock_on)
  message(FATAL_ERROR
          "optimized checksum ${ock_on} != unoptimized ${ock_off}")
endif()
foreach(side off on)
  string(JSON cps GET "${content}" optimization ${side} cycles_per_sec)
  if(cps LESS_EQUAL 0)
    message(FATAL_ERROR "optimization.${side}.cycles_per_sec = ${cps}")
  endif()
endforeach()
string(JSON ospeed GET "${content}" optimization speedup_on_vs_off)
if(ospeed LESS_EQUAL 0)
  message(FATAL_ERROR "optimization.speedup_on_vs_off = ${ospeed}")
endif()

# farm: the multi-core scaling block (docs/simulator.md).  Checksum
# equality is asserted unconditionally — that is the determinism
# contract: the time-sized thread rows must agree with each other, and a
# fixed-size farm run at 1, 2 and 4 threads must match the firing-rule
# oracle over oracle_cycles_per_lane cycles.  Checksums are compared as
# strings: if(EQUAL) parses numbers as signed 64-bit integers, and two
# checksums above INT64_MAX compare equal whatever their value.  Every
# thread row must last >= 0.2 s (the bench sizes the sweep by time), so
# the speedup measures simulation, not thread start-up.  The 4-thread speedup is only
# asserted on hosts with at least 4 cores; a 1-core CI container cannot
# physically demonstrate scaling.
foreach(field lanes lanes_per_block blocks cycles_per_lane host_cores
              batch64_lane_cycles_per_sec oracle_cycles_per_lane
              oracle_checksum oracle_farm_checksums speedup_4_vs_1
              speedup_vs_batch64 speedup_vs_batch64_sweeps)
  string(JSON v ERROR_VARIABLE jerr GET "${content}" farm ${field})
  if(jerr)
    message(FATAL_ERROR "farm missing '${field}': ${jerr}")
  endif()
endforeach()
string(JSON flanes GET "${content}" farm lanes)
string(JSON fper GET "${content}" farm lanes_per_block)
string(JSON fblocks GET "${content}" farm blocks)
if(NOT flanes EQUAL 256 OR NOT fper EQUAL 64 OR NOT fblocks EQUAL 4)
  message(FATAL_ERROR
          "farm geometry ${flanes}/${fper}/${fblocks} != 256/64/4")
endif()
string(JSON nthreads LENGTH "${content}" farm threads)
if(NOT nthreads EQUAL 3)
  message(FATAL_ERROR "expected 3 farm thread rows, got ${nthreads}")
endif()
string(JSON foracle GET "${content}" farm oracle_checksum)
string(JSON noracle LENGTH "${content}" farm oracle_farm_checksums)
if(NOT noracle EQUAL 3)
  message(FATAL_ERROR "expected 3 oracle farm checksums, got ${noracle}")
endif()
foreach(i RANGE 2)
  string(JSON osum GET "${content}" farm oracle_farm_checksums ${i})
  if(NOT osum STREQUAL foracle)
    message(FATAL_ERROR
            "fixed-size farm checksum ${i} = ${osum} != firing oracle ${foracle}")
  endif()
endforeach()
string(JSON frow0 GET "${content}" farm threads 0 checksum)
set(want_threads "1;2;4")
math(EXPR tlast "${nthreads} - 1")
foreach(i RANGE ${tlast})
  string(JSON tthreads GET "${content}" farm threads ${i} threads)
  list(GET want_threads ${i} want)
  if(NOT tthreads EQUAL ${want})
    message(FATAL_ERROR "farm row ${i} has threads=${tthreads}, want ${want}")
  endif()
  string(JSON tlcps GET "${content}" farm threads ${i} lane_cycles_per_sec)
  if(tlcps LESS_EQUAL 0)
    message(FATAL_ERROR "farm row ${i} lane_cycles_per_sec = ${tlcps}")
  endif()
  string(JSON tsec GET "${content}" farm threads ${i} seconds)
  if(tsec LESS 0.2)
    message(FATAL_ERROR
            "farm row ${i} lasted ${tsec} s (< 0.2 s): too short to time")
  endif()
  string(JSON tsum GET "${content}" farm threads ${i} checksum)
  if(NOT tsum STREQUAL frow0)
    message(FATAL_ERROR
            "farm checksum at ${tthreads} thread(s) = ${tsum} != ${frow0} at 1 thread")
  endif()
endforeach()
string(JSON nsweeps LENGTH "${content}" farm speedup_vs_batch64_sweeps)
if(NOT nsweeps EQUAL 3)
  message(FATAL_ERROR "expected 3 farm sweeps, got ${nsweeps}")
endif()
string(JSON fcores GET "${content}" farm host_cores)
string(JSON fspeed GET "${content}" farm speedup_vs_batch64)
if(fcores GREATER_EQUAL 4)
  if(fspeed LESS 2.5)
    message(FATAL_ERROR
            "farm 4-thread speedup over the 64-lane batch is ${fspeed} (< 2.5) on a ${fcores}-core host")
  endif()
else()
  message(STATUS "farm speedup check skipped: only ${fcores} host core(s)")
endif()

# build: the attribution stamp (PR 8) — who compiled the binary that
# produced these numbers.
foreach(field git compiler build_type trace_compiled_out)
  string(JSON v ERROR_VARIABLE jerr GET "${content}" build ${field})
  if(jerr)
    message(FATAL_ERROR "build missing '${field}': ${jerr}")
  endif()
endforeach()
string(JSON bgit GET "${content}" build git)
if(bgit STREQUAL "")
  message(FATAL_ERROR "build.git is empty")
endif()

if(CHECKED_IN)
  # A committed artifact must come from a clean tree: a -dirty stamp
  # means the numbers cannot be reproduced from any commit.
  if(bgit MATCHES "-dirty")
    message(FATAL_ERROR
            "checked-in BENCH_sim.json carries a dirty build stamp "
            "'${bgit}'; regenerate it from a clean tree")
  endif()
endif()

# latency: the farm.block_us histogram collected across the whole thread
# sweep.  The summary quartet must be internally consistent and the
# bucket counts must sum to the total.
foreach(field unit count sum max p50 p90 p99 buckets)
  string(JSON v ERROR_VARIABLE jerr GET "${content}" latency farm.block_us ${field})
  if(jerr)
    message(FATAL_ERROR "latency.farm.block_us missing '${field}': ${jerr}")
  endif()
endforeach()
string(JSON lcount GET "${content}" latency farm.block_us count)
string(JSON lmax GET "${content}" latency farm.block_us max)
string(JSON lp50 GET "${content}" latency farm.block_us p50)
string(JSON lp99 GET "${content}" latency farm.block_us p99)
# 3 thread rows x 4 blocks each.
if(NOT lcount EQUAL 12)
  message(FATAL_ERROR "latency.farm.block_us.count = ${lcount}, expected 12")
endif()
if(lp50 GREATER lp99 OR lp99 GREATER lmax)
  message(FATAL_ERROR
          "latency percentiles not ordered: p50=${lp50} p99=${lp99} max=${lmax}")
endif()
string(JSON nbuckets LENGTH "${content}" latency farm.block_us buckets)
if(nbuckets LESS 1)
  message(FATAL_ERROR "latency.farm.block_us has no occupied buckets")
endif()
set(bsum 0)
math(EXPR blast "${nbuckets} - 1")
foreach(i RANGE ${blast})
  string(JSON bn GET "${content}" latency farm.block_us buckets ${i} 1)
  math(EXPR bsum "${bsum} + ${bn}")
endforeach()
if(NOT bsum EQUAL lcount)
  message(FATAL_ERROR
          "latency bucket counts sum to ${bsum}, total says ${lcount}")
endif()

message(STATUS "BENCH_sim.json schema OK (${nevals} evaluators + fault campaign + optimization + farm + build/latency; opt ${onodes_before} -> ${onodes_after} nodes)")
