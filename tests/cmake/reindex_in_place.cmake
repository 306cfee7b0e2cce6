# `paragraph-cli reindex F F`: the output names the input. The frozen v1
# corpus (tests/golden_legacy/corpus.pgds, written by the former v1 writer)
# is copied into WORK_DIR and reindexed in place; the command must exit 0
# and leave exactly the v2 file checked in beside the original (same record
# bytes, index appended), which `dump` must then read as format v2.
#
# Usage: cmake -DCLI=... -DLEGACY_DIR=... -DWORK_DIR=... -P reindex_in_place.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(COPY "${LEGACY_DIR}/corpus.pgds" DESTINATION "${WORK_DIR}")
set(corpus "${WORK_DIR}/corpus.pgds")

execute_process(COMMAND "${CLI}" reindex "${corpus}" "${corpus}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "reindex in place exited ${rc}: ${out}${err}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${corpus}"
          "${LEGACY_DIR}/corpus_v2.pgds"
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  file(SIZE "${corpus}" bytes)
  message(FATAL_ERROR "reindexed in place (${bytes} bytes) is not "
          "${LEGACY_DIR}/corpus_v2.pgds")
endif()

execute_process(COMMAND "${CLI}" dump "${corpus}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE dump ERROR_VARIABLE err)
string(FIND "${dump}" "(format v2," v2_at)
string(FIND "${dump}" "records: 4 train + 0 validation (indexed, checksummed)"
       records_at)
if(NOT rc EQUAL 0 OR v2_at EQUAL -1 OR records_at EQUAL -1)
  message(FATAL_ERROR "dump of the reindexed corpus (exit ${rc}):\n${dump}${err}")
endif()
file(GLOB leftovers "${WORK_DIR}/*")
list(LENGTH leftovers count)
if(NOT count EQUAL 1)
  message(FATAL_ERROR "reindex left files behind: ${leftovers}")
endif()
message(STATUS "reindex in place: ${out}")
