# Check that `rhmd-corpus generate --preset all --smoke` extracts each
# distinct config key once. In smoke mode the standard and fig13
# presets resolve to one key, so one run must not extract that corpus
# twice: the corpus.programs counter in the run's metrics snapshot
# (programs run through feature extraction) must equal the summed
# program counts of the distinct files the run reports.
#
# Usage:
#   cmake -DRHMD_CORPUS=<rhmd-corpus binary> -DWORK_DIR=<scratch dir> \
#         -P tools/check_generate_all.cmake

cmake_minimum_required(VERSION 3.19)  # string(JSON)

if(NOT RHMD_CORPUS OR NOT WORK_DIR)
    message(FATAL_ERROR "set -DRHMD_CORPUS=... and -DWORK_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(
    COMMAND "${RHMD_CORPUS}" generate --preset all --smoke --json
            --out "${WORK_DIR}" --metrics "${WORK_DIR}" --threads 2
    OUTPUT_VARIABLE summaries
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "rhmd-corpus generate exited with ${status}")
endif()

# One JSON summary line per preset.
string(REPLACE "\n" ";" lines "${summaries}")
set(presets 0)
set(keys "")
set(distinct_programs 0)
foreach(line IN LISTS lines)
    if(line STREQUAL "")
        continue()
    endif()
    math(EXPR presets "${presets} + 1")
    string(JSON key GET "${line}" config_key)
    string(JSON path GET "${line}" path)
    string(JSON programs GET "${line}" programs)
    if(NOT EXISTS "${path}")
        message(FATAL_ERROR "reported file ${path} does not exist")
    endif()
    if(NOT key IN_LIST keys)
        list(APPEND keys "${key}")
        math(EXPR distinct_programs "${distinct_programs} + ${programs}")
    endif()
endforeach()
list(LENGTH keys distinct)
if(presets LESS 3)
    message(FATAL_ERROR "expected a summary per preset, got ${presets}")
endif()

file(READ "${WORK_DIR}/METRICS_rhmd_corpus.json" snapshot)
string(JSON metric_count LENGTH "${snapshot}" metrics)
math(EXPR last "${metric_count} - 1")
set(extracted "")
foreach(i RANGE ${last})
    string(JSON name GET "${snapshot}" metrics ${i} name)
    if(name STREQUAL "corpus.programs")
        string(JSON extracted GET "${snapshot}" metrics ${i} value)
    endif()
endforeach()
if(NOT extracted EQUAL distinct_programs)
    message(FATAL_ERROR
        "extracted ${extracted} programs for ${presets} presets with "
        "${distinct} distinct config keys; the distinct files hold "
        "${distinct_programs}")
endif()
message(STATUS "${presets} presets, ${distinct} distinct config keys, "
               "${extracted} programs extracted")
