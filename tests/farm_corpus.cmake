# ctest driver: sweep every built-in corpus entry through the multi-core
# simulation farm CLI (`zeusc --farm-threads 2 --lanes 96 --sim 8`) and
# smoke the batch-request mode (docs/simulator.md).
#
#   cmake -DZEUSC=<path-to-zeusc> -DWORKDIR=<scratch dir> -P farm_corpus.cmake
#
# Checks, per entry:
#   * zeusc exits 0 — the paper's own programs run through the farm;
#   * the summary line reports the requested lane/block/thread geometry;
#   * rerunning at 1 thread prints the identical checksum (determinism);
#   * the --metrics report carries evaluator "farm" with lanes 96.
# Then one --serve-batch request file covering an example, an inline
# source and a deliberately bad request must produce a zeus-serve-v1
# response with exactly one failure, and its --trace and --metrics files
# must hold the batch's compile and farm spans and serve latencies.
cmake_minimum_required(VERSION 3.19)  # string(JSON ...)

if(NOT DEFINED ZEUSC)
  message(FATAL_ERROR "pass -DZEUSC=<path to the zeusc binary>")
endif()
if(NOT DEFINED WORKDIR)
  set(WORKDIR ${CMAKE_CURRENT_BINARY_DIR})
endif()

execute_process(COMMAND ${ZEUSC} --list-examples
                OUTPUT_VARIABLE listing
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "zeusc --list-examples failed (rc=${rc})")
endif()

string(REPLACE "\n" ";" lines "${listing}")
set(entries "")
foreach(line IN LISTS lines)
  if(line MATCHES "^([a-z0-9-]+)[ \t]")
    list(APPEND entries "${CMAKE_MATCH_1}")
  endif()
endforeach()
list(LENGTH entries count)
if(count LESS 10)
  message(FATAL_ERROR "expected at least 10 corpus entries, got ${count}")
endif()

foreach(entry IN LISTS entries)
  set(mfile "${WORKDIR}/farm_${entry}.json")
  execute_process(COMMAND ${ZEUSC} --example ${entry} --sim 8
                          --farm-threads 2 --lanes 96 --metrics ${mfile}
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${entry}: farm run exited ${rc}\n${out}\n${err}")
  endif()
  if(NOT out MATCHES "farm: 8 cycle\\(s\\) x 96 lane\\(s\\), 2 block\\(s\\) on 2 thread\\(s\\), checksum ([0-9a-f]+)")
    message(FATAL_ERROR "${entry}: missing/garbled farm summary line:\n${out}")
  endif()
  set(checksum2 "${CMAKE_MATCH_1}")

  # Determinism across thread counts: 1 thread, same checksum.
  execute_process(COMMAND ${ZEUSC} --example ${entry} --sim 8
                          --farm-threads 1 --lanes 96
                  OUTPUT_VARIABLE out1
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${entry}: 1-thread farm run exited ${rc}")
  endif()
  if(NOT out1 MATCHES "checksum ([0-9a-f]+)")
    message(FATAL_ERROR "${entry}: no checksum in 1-thread output:\n${out1}")
  endif()
  if(NOT CMAKE_MATCH_1 STREQUAL checksum2)
    message(FATAL_ERROR
            "${entry}: checksum differs across thread counts: "
            "1t=${CMAKE_MATCH_1} 2t=${checksum2}")
  endif()

  # The metrics report must carry the farm counters.
  file(READ ${mfile} json)
  string(JSON evaluator GET "${json}" "sim" "evaluator")
  if(NOT evaluator STREQUAL "farm")
    message(FATAL_ERROR "${entry}: sim.evaluator = '${evaluator}'")
  endif()
  string(JSON nlanes GET "${json}" "sim" "lanes")
  if(NOT nlanes EQUAL 96)
    message(FATAL_ERROR "${entry}: sim.lanes = ${nlanes}, expected 96")
  endif()
  string(JSON firings GET "${json}" "sim" "node_firings")
  if(firings LESS_EQUAL 0)
    message(FATAL_ERROR "${entry}: sim.node_firings = ${firings}")
  endif()

  message(STATUS "${entry}: ok (checksum ${checksum2})")
endforeach()

# --- batch-request mode -------------------------------------------------

set(reqfile "${WORKDIR}/farm_requests.json")
set(respfile "${WORKDIR}/farm_response.json")
file(WRITE ${reqfile} [=[
{"requests": [
  {"id": "corpus", "example": "adders", "cycles": 8, "lanes": 96, "threads": 2},
  {"id": "again",  "example": "adders", "cycles": 8, "lanes": 96, "threads": 1},
  {"id": "broken", "example": "no-such-entry"}
]}
]=])
set(tracefile "${WORKDIR}/farm_serve_trace.json")
set(metricsfile "${WORKDIR}/farm_serve_metrics.json")
file(REMOVE ${tracefile} ${metricsfile})
execute_process(COMMAND ${ZEUSC} --serve-batch ${reqfile}
                        --serve-out ${respfile}
                        --trace ${tracefile} --metrics ${metricsfile}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
# One failing request => exit 1, by design.
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "serve-batch exited ${rc}, expected 1\n${out}\n${err}")
endif()
file(READ ${respfile} resp)
string(JSON schema GET "${resp}" "schema")
if(NOT schema STREQUAL "zeus-serve-v1")
  message(FATAL_ERROR "serve-batch schema '${schema}'")
endif()
string(JSON nreq GET "${resp}" "requests")
string(JSON ncompiles GET "${resp}" "compiles")
string(JSON nhits GET "${resp}" "cache_hits")
string(JSON nfail GET "${resp}" "failures")
if(NOT nreq EQUAL 3 OR NOT nfail EQUAL 1)
  message(FATAL_ERROR "serve-batch counts: requests=${nreq} failures=${nfail}")
endif()
# Two requests for one design: exactly one compile and one cache hit.
if(NOT ncompiles EQUAL 1 OR NOT nhits EQUAL 1)
  message(FATAL_ERROR
          "compile cache broken: compiles=${ncompiles} hits=${nhits}")
endif()
string(JSON sum0 GET "${resp}" "results" 0 "checksum")
string(JSON sum1 GET "${resp}" "results" 1 "checksum")
if(NOT sum0 STREQUAL sum1)
  message(FATAL_ERROR "serve checksums differ across thread counts: "
                      "${sum0} vs ${sum1}")
endif()
string(JSON ok2 GET "${resp}" "results" 2 "ok")
if(NOT ok2 STREQUAL "OFF")
  message(FATAL_ERROR "broken request reported ok=${ok2}")
endif()

# --trace and --metrics cover the whole batch: the one compile's phases,
# both farm runs and the serve latency histograms.
foreach(f IN ITEMS ${tracefile} ${metricsfile})
  if(NOT EXISTS ${f})
    message(FATAL_ERROR "serve-batch did not write ${f}\n${out}")
  endif()
endforeach()
file(READ ${tracefile} trace)
string(JSON nevents LENGTH "${trace}" "traceEvents")
set(tracenames "")
math(EXPR last "${nevents} - 1")
foreach(i RANGE ${last})
  string(JSON ev GET "${trace}" "traceEvents" ${i} "name")
  list(APPEND tracenames "${ev}")
endforeach()
foreach(span IN ITEMS serve-batch serve-compile elab farm-run)
  if(NOT span IN_LIST tracenames)
    message(FATAL_ERROR "serve-batch trace has no '${span}' span")
  endif()
endforeach()
file(READ ${metricsfile} metrics)
string(JSON mschema GET "${metrics}" "zeus-metrics")
if(NOT mschema EQUAL 1)
  message(FATAL_ERROR "serve-batch metrics schema ${mschema}")
endif()
string(JSON nphases LENGTH "${metrics}" "compile" "phases")
if(nphases LESS 1)
  message(FATAL_ERROR "serve-batch metrics carry no phases")
endif()
string(JSON nserved GET "${metrics}" "latency" "serve.request_us" "count")
string(JSON nmisses GET "${metrics}" "latency" "serve.cache_miss_us" "count")
if(NOT nserved EQUAL 3 OR NOT nmisses EQUAL 1)
  message(FATAL_ERROR "serve-batch metrics latency counts: "
                      "requests=${nserved} misses=${nmisses}")
endif()

message(STATUS "farm_corpus: ${count} corpus entries + serve-batch validated")
